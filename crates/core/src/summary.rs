//! The cell summary: everything the walk knows of a cell.
//!
//! A local tree cell, a branch shipped to every rank, a child fetched by
//! the distributed walk and a shared top-tree node are four views of one
//! thing — a key range, the particles in it and their multipole
//! expansion. Each carries a [`Summary`]; the multipole acceptance
//! criterion ([`crate::Mac::accepts`]) reads only that, and the wire
//! carries only that plus owner and leaf flag.
//!
//! A summary is formed in exactly two ways, one function each:
//!
//! * [`Summary::of_particles`] (P2M) — a leaf, or a *virtual* branch: the
//!   part of a local leaf that lies inside the owner's key interval;
//! * [`Summary::of_children`] (M2M) — an internal local cell, or a shared
//!   top-tree node over the branches below it.
//!
//! So the same particles under the same children give the same bits
//! whichever rank forms the summary, and from which kind of cell.

use crate::moments::Moments;
use crate::wirevec::{get_vec3, put_vec3};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hot_base::{Aabb, Vec3};
use hot_comm::Wire;
use hot_morton::Key;

/// A cell's key, particle count and multipole expansion, with the matter
/// radius the acceptance criteria need and the weight a parent's
/// centroid needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary<M> {
    /// Hashed oct-tree key of the cell.
    pub key: Key,
    /// Particles contained.
    pub n: u64,
    /// Expansion center: the charge-weighted centroid of the contents
    /// (the cell's geometric center when it holds no weight).
    pub center: Vec3,
    /// Upper bound on the distance from `center` to any contained particle.
    pub bmax: f64,
    /// Total absolute charge weight (the centroid's denominator).
    pub wsum: f64,
    /// Multipole expansion about `center`.
    pub moments: M,
}

impl<M: Moments> Summary<M> {
    /// P2M: the summary of the cell `key` (of the root cube `domain`)
    /// holding the particles `pos`/`charge`.
    pub(crate) fn of_particles(key: Key, pos: &[Vec3], charge: &[M::Charge], domain: &Aabb) -> Self {
        let mut wsum = 0.0;
        let mut centroid = Vec3::ZERO;
        for (&p, q) in pos.iter().zip(charge) {
            let w = M::weight(q);
            wsum += w;
            centroid += p * w;
        }
        let center = if wsum > 0.0 { centroid / wsum } else { key.cell_center(domain) };
        let mut moments = M::default();
        let mut bmax2 = 0.0f64;
        for (&p, q) in pos.iter().zip(charge) {
            moments.accumulate_shifted(&M::from_particle(p, q, center), center, center);
            bmax2 = bmax2.max((p - center).norm2());
        }
        Summary { key, n: pos.len() as u64, center, bmax: bmax2.sqrt(), wsum, moments }
    }

    /// M2M: the summary of the cell `key` (of the root cube `domain`) whose
    /// children are `kids`, merged in the order given.
    pub(crate) fn of_children<'a>(
        key: Key,
        kids: impl Iterator<Item = &'a Self> + Clone,
        domain: &Aabb,
    ) -> Self
    where
        M: 'a,
    {
        let geom = key.cell_aabb(domain);
        let mut n = 0;
        let mut wsum = 0.0;
        let mut centroid = Vec3::ZERO;
        for k in kids.clone() {
            n += k.n;
            wsum += k.wsum;
            centroid += k.center * k.wsum;
        }
        let center = if wsum > 0.0 { centroid / wsum } else { geom.center() };
        let mut moments = M::default();
        let mut bmax = 0.0f64;
        for k in kids {
            moments.accumulate_shifted(&k.moments, k.center, center);
            bmax = bmax.max((k.center - center).norm() + k.bmax);
        }
        // The distance to the cell's farthest corner also bounds the
        // contents; keep the tighter bound.
        let corner = (center - geom.min).abs().max((geom.max - center).abs()).norm();
        Summary { key, n, center, bmax: bmax.min(corner), wsum, moments }
    }

    /// Equal bit for bit (the wire encodings match), where `==` would call
    /// two NaNs different and `0.0` and `-0.0` the same.
    pub(crate) fn same_bits(&self, other: &Self) -> bool {
        *hot_comm::to_bytes(self) == *hot_comm::to_bytes(other)
    }
}

impl<M: Wire> Wire for Summary<M> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.key.0);
        buf.put_u64_le(self.n);
        put_vec3(buf, self.center);
        buf.put_f64_le(self.bmax);
        buf.put_f64_le(self.wsum);
        self.moments.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let key = Key(buf.get_u64_le());
        let n = buf.get_u64_le();
        let center = get_vec3(buf);
        let bmax = buf.get_f64_le();
        let wsum = buf.get_f64_le();
        let moments = M::decode(buf);
        Summary { key, n, center, bmax, wsum, moments }
    }
    fn wire_size(&self) -> usize {
        8 + 8 + 24 + 8 + 8 + self.moments.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::{MassMoments, VectorMoments};
    use rand::{Rng, SeedableRng};

    fn points(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pos = (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect();
        let q = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
        (pos, q)
    }

    #[test]
    fn particles_and_children_agree_on_what_is_exact() {
        let (pos, q) = points(40, 3);
        let whole = Summary::<MassMoments>::of_particles(Key::ROOT, &pos, &q, &Aabb::unit());
        let halves: [Summary<MassMoments>; 2] = [
            Summary::of_particles(Key::ROOT.child(0), &pos[..15], &q[..15], &Aabb::unit()),
            Summary::of_particles(Key::ROOT.child(1), &pos[15..], &q[15..], &Aabb::unit()),
        ];
        let merged = Summary::of_children(Key::ROOT, halves.iter(), &Aabb::unit());
        // Counts and weights are sums of exact multiples of 0.5.
        assert_eq!((merged.n, merged.wsum), (whole.n, whole.wsum));
        assert_eq!(merged.moments.mass, whole.moments.mass);
        assert!((merged.center - whole.center).norm() < 1e-14);
        for i in 0..6 {
            assert!((merged.moments.quad.m[i] - whole.moments.quad.m[i]).abs() < 1e-12);
        }
        // A merged bmax is a bound, not the exact radius.
        assert!(merged.bmax >= whole.bmax * (1.0 - 1e-12));
    }

    #[test]
    fn weightless_cells_sit_at_their_geometric_center() {
        let domain = Aabb::cube(Vec3::new(-1.0, 0.0, 2.0), 4.0);
        let key = Key::ROOT.child(5).child(2);
        let empty = Summary::<MassMoments>::of_particles(key, &[], &[], &domain);
        assert_eq!((empty.n, empty.wsum, empty.bmax), (0, 0.0, 0.0));
        assert_eq!(empty.center, key.cell_center(&domain));
        let none = Summary::<MassMoments>::of_children(key, [].iter(), &domain);
        assert!(none.same_bits(&empty));
    }

    #[test]
    fn bits_not_values() {
        let (pos, q) = points(5, 8);
        let s = Summary::<MassMoments>::of_particles(Key::ROOT, &pos, &q, &Aabb::unit());
        let mut nan = s;
        nan.bmax = f64::NAN;
        assert!(nan.same_bits(&nan) && nan != nan);
        let mut zero = s;
        zero.wsum = 0.0;
        let mut negative_zero = s;
        negative_zero.wsum = -0.0;
        assert!(zero == negative_zero && !zero.same_bits(&negative_zero));
    }

    #[test]
    fn wire_roundtrip() {
        let (pos, q) = points(7, 1);
        let s = Summary::<MassMoments>::of_particles(Key::ROOT.child(3), &pos, &q, &Aabb::unit());
        assert_eq!(s.wire_size(), 120);
        assert_eq!(hot_comm::from_bytes::<Summary<MassMoments>>(hot_comm::to_bytes(&s)), s);
        let alpha: Vec<Vec3> = pos.iter().map(|p| *p - Vec3::splat(0.5)).collect();
        let v = Summary::<VectorMoments>::of_particles(Key::ROOT, &pos, &alpha, &Aabb::unit());
        assert_eq!(hot_comm::from_bytes::<Summary<VectorMoments>>(hot_comm::to_bytes(&v)), v);
    }
}
