//! Generic multipole moments.
//!
//! The treecode library is physics-agnostic: *"Using a generic design, we
//! have implemented a variety of modules to solve problems in galactic
//! dynamics and cosmology as well as fluid-dynamical problems…"*. The
//! [`Moments`] trait is that seam. A physics module supplies:
//!
//! * the per-particle source strength (`Charge`: a scalar mass for gravity,
//!   a vector strength for vortex particles),
//! * how to form a cell expansion from one particle (P2M),
//! * how to shift and merge child expansions into a parent (M2M),
//! * scalar summaries the multipole acceptance criteria need.
//!
//! Cell expansion centers are charge-weighted centroids chosen by the tree
//! build, so dipole terms vanish identically for scalar charges (Newton's
//! point-mass insight, as the paper puts it).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hot_base::{SymMat3, Vec3};
use hot_comm::Wire;

/// Multipole expansion data carried by every tree cell.
pub trait Moments: Clone + Copy + Default + Send + Sync + Wire + 'static {
    /// Per-particle source strength.
    type Charge: Clone + Copy + Send + Sync + Wire + 'static;

    /// Non-negative weight used to place expansion centers (e.g. mass, or
    /// `|α|` for vortex particles).
    fn weight(q: &Self::Charge) -> f64;

    /// Expansion of a single particle at `pos` about `center`.
    fn from_particle(pos: Vec3, q: &Self::Charge, center: Vec3) -> Self;

    /// Merge `other` (an expansion about `other_center`) into `self` (an
    /// expansion about `center`).
    fn accumulate_shifted(&mut self, other: &Self, other_center: Vec3, center: Vec3);

    /// Total absolute source strength of the expansion.
    fn total_weight(&self) -> f64;

    /// Second absolute moment about the expansion center,
    /// `Σ |qᵢ| · |xᵢ − c|²`, used by the Salmon–Warren error-bound MAC.
    fn b2(&self) -> f64;
}

/// Gravitational mass moments: total mass, traced quadrupole about the
/// center of mass, and the B₂ error-bound moment.
///
/// The expansion center handed to [`Moments::from_particle`] /
/// [`Moments::accumulate_shifted`] is the center of mass, so no dipole term
/// is stored — it is identically zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MassMoments {
    /// Total mass.
    pub mass: f64,
    /// Raw second-moment tensor `Σ mᵢ rᵢ rᵢᵀ` about the cell center
    /// (`r = x − c`). The traceless combination is formed in the kernel.
    pub quad: SymMat3,
    /// `Σ mᵢ |rᵢ|²` (equals `trace(quad)`, kept explicit for the MAC).
    pub b2: f64,
}

impl Wire for MassMoments {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(self.mass);
        for v in self.quad.m {
            buf.put_f64_le(v);
        }
        buf.put_f64_le(self.b2);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let mass = buf.get_f64_le();
        let mut m = [0.0; 6];
        for v in &mut m {
            *v = buf.get_f64_le();
        }
        let b2 = buf.get_f64_le();
        MassMoments { mass, quad: SymMat3 { m }, b2 }
    }
    fn wire_size(&self) -> usize {
        64
    }
}

impl Moments for MassMoments {
    type Charge = f64;

    #[inline]
    fn weight(q: &f64) -> f64 {
        q.abs()
    }

    #[inline]
    fn from_particle(pos: Vec3, q: &f64, center: Vec3) -> Self {
        let r = pos - center;
        MassMoments { mass: *q, quad: SymMat3::outer(r) * *q, b2: *q * r.norm2() }
    }

    #[inline]
    fn accumulate_shifted(&mut self, other: &Self, other_center: Vec3, center: Vec3) {
        let d = other_center - center;
        self.mass += other.mass;
        // Parallel-axis shift: children are expanded about their own
        // centroids, so their dipole about `other_center` vanishes and the
        // shift needs only the m·ddᵀ term.
        self.quad += other.quad + SymMat3::outer(d) * other.mass;
        self.b2 += other.b2 + other.mass * d.norm2();
    }

    #[inline]
    fn total_weight(&self) -> f64 {
        self.mass
    }

    #[inline]
    fn b2(&self) -> f64 {
        self.b2
    }
}

/// Monopole-only variant used by the ablation benches: same charge type,
/// no quadrupole bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MonoMoments {
    /// Total mass.
    pub mass: f64,
    /// `Σ mᵢ |rᵢ|²` for the error-bound MAC.
    pub b2: f64,
}

impl Wire for MonoMoments {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(self.mass);
        buf.put_f64_le(self.b2);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let mass = buf.get_f64_le();
        let b2 = buf.get_f64_le();
        MonoMoments { mass, b2 }
    }
    fn wire_size(&self) -> usize {
        16
    }
}

impl Moments for MonoMoments {
    type Charge = f64;

    fn weight(q: &f64) -> f64 {
        q.abs()
    }

    fn from_particle(pos: Vec3, q: &f64, center: Vec3) -> Self {
        MonoMoments { mass: *q, b2: *q * (pos - center).norm2() }
    }

    fn accumulate_shifted(&mut self, other: &Self, other_center: Vec3, center: Vec3) {
        let d = other_center - center;
        self.mass += other.mass;
        self.b2 += other.b2 + other.mass * d.norm2();
    }

    fn total_weight(&self) -> f64 {
        self.mass
    }

    fn b2(&self) -> f64 {
        self.b2
    }
}

/// Vector-charge moments for the vortex particle method: total vortex
/// strength `Σ αᵢ` plus the first-moment matrix `Σ αᵢ ⊗ rᵢ` (used by the
/// higher-order far-field velocity term) and the `|α|`-weighted b2.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VectorMoments {
    /// Total vector strength `Σ αᵢ`.
    pub alpha: Vec3,
    /// First moment `Σ αᵢ ⊗ rᵢ` stored row-major (rows = α components).
    pub alpha_r: [[f64; 3]; 3],
    /// Total `Σ |αᵢ|`.
    pub abs_alpha: f64,
    /// `Σ |αᵢ| · |rᵢ|²`.
    pub b2: f64,
}

impl Wire for VectorMoments {
    fn encode(&self, buf: &mut BytesMut) {
        self.alpha.encode(buf);
        for row in &self.alpha_r {
            for &v in row {
                buf.put_f64_le(v);
            }
        }
        buf.put_f64_le(self.abs_alpha);
        buf.put_f64_le(self.b2);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let alpha = Vec3::decode(buf);
        let mut alpha_r = [[0.0; 3]; 3];
        for row in &mut alpha_r {
            for v in row.iter_mut() {
                *v = buf.get_f64_le();
            }
        }
        let abs_alpha = buf.get_f64_le();
        let b2 = buf.get_f64_le();
        VectorMoments { alpha, alpha_r, abs_alpha, b2 }
    }
    fn wire_size(&self) -> usize {
        24 + 72 + 16
    }
}

impl Moments for VectorMoments {
    type Charge = Vec3;

    fn weight(q: &Vec3) -> f64 {
        q.norm()
    }

    fn from_particle(pos: Vec3, q: &Vec3, center: Vec3) -> Self {
        let r = pos - center;
        let alpha_r: [[f64; 3]; 3] = std::array::from_fn(|i| std::array::from_fn(|j| (*q)[i] * r[j]));
        VectorMoments { alpha: *q, alpha_r, abs_alpha: q.norm(), b2: q.norm() * r.norm2() }
    }

    fn accumulate_shifted(&mut self, other: &Self, other_center: Vec3, center: Vec3) {
        let d = other_center - center;
        self.alpha += other.alpha;
        for i in 0..3 {
            for j in 0..3 {
                // Σ α (r' + d)ᵀ = Σ α r'ᵀ + (Σ α) dᵀ
                self.alpha_r[i][j] += other.alpha_r[i][j] + other.alpha[i] * d[j];
            }
        }
        self.abs_alpha += other.abs_alpha;
        // |α|-weighted parallel-axis bound: |r|² ≤ |r'|² + 2|r'||d| + |d|²;
        // we use the exact shift of the second moment about the weighted
        // centroid, which (like mass) has vanishing weighted dipole only if
        // centers are |α|-centroids — they are, by construction.
        self.b2 += other.b2 + other.abs_alpha * d.norm2();
    }

    fn total_weight(&self) -> f64 {
        self.abs_alpha
    }

    fn b2(&self) -> f64 {
        self.b2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_comm::{from_bytes, to_bytes};

    #[test]
    fn mass_moments_single_particle() {
        let c = Vec3::new(1.0, 1.0, 1.0);
        let p = Vec3::new(2.0, 1.0, 1.0);
        let m = MassMoments::from_particle(p, &3.0, c);
        assert_eq!(m.mass, 3.0);
        assert_eq!(m.b2, 3.0);
        assert_eq!(m.quad.m[0], 3.0); // xx
        assert_eq!(m.quad.trace(), 3.0);
    }

    #[test]
    fn mass_moments_shift_matches_direct() {
        // Build moments of 4 particles two ways: directly about the global
        // centroid, and via two sub-groups merged with the parallel-axis
        // shift. They must agree.
        let pts = [
            (Vec3::new(0.0, 0.0, 0.0), 1.0),
            (Vec3::new(1.0, 0.0, 0.0), 2.0),
            (Vec3::new(0.0, 2.0, 0.0), 1.5),
            (Vec3::new(1.0, 2.0, 3.0), 0.5),
        ];
        let mtot: f64 = pts.iter().map(|(_, m)| m).sum();
        let com = pts.iter().map(|&(p, m)| p * m).fold(Vec3::ZERO, |a, b| a + b) / mtot;

        let mut direct = MassMoments::default();
        for &(p, m) in &pts {
            let mm = MassMoments::from_particle(p, &m, com);
            direct.accumulate_shifted(&mm, com, com);
        }

        // Two sub-groups about their own coms.
        let groups = [&pts[..2], &pts[2..]];
        let mut merged = MassMoments::default();
        for g in groups {
            let gm: f64 = g.iter().map(|(_, m)| m).sum();
            let gc = g.iter().map(|&(p, m)| p * m).fold(Vec3::ZERO, |a, b| a + b) / gm;
            let mut sub = MassMoments::default();
            for &(p, m) in g {
                sub.accumulate_shifted(&MassMoments::from_particle(p, &m, gc), gc, gc);
            }
            merged.accumulate_shifted(&sub, gc, com);
        }

        assert!((direct.mass - merged.mass).abs() < 1e-12);
        assert!((direct.b2 - merged.b2).abs() < 1e-12);
        for i in 0..6 {
            assert!(
                (direct.quad.m[i] - merged.quad.m[i]).abs() < 1e-12,
                "quad component {i}: {} vs {}",
                direct.quad.m[i],
                merged.quad.m[i]
            );
        }
    }

    #[test]
    fn b2_equals_quad_trace() {
        let c = Vec3::ZERO;
        let mut acc = MassMoments::default();
        for i in 0..10 {
            let p = Vec3::new(i as f64 * 0.1, (i as f64).sin(), 0.3);
            acc.accumulate_shifted(&MassMoments::from_particle(p, &(1.0 + i as f64), c), c, c);
        }
        assert!((acc.b2 - acc.quad.trace()).abs() < 1e-12);
    }

    #[test]
    fn wire_roundtrip() {
        let m = MassMoments {
            mass: 2.5,
            quad: SymMat3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
            b2: 6.0,
        };
        let back: MassMoments = from_bytes(to_bytes(&m));
        assert_eq!(back, m);

        let v = VectorMoments::from_particle(
            Vec3::new(1.0, 2.0, 3.0),
            &Vec3::new(0.1, -0.2, 0.3),
            Vec3::ZERO,
        );
        let back: VectorMoments = from_bytes(to_bytes(&v));
        assert_eq!(back, v);

        let mo = MonoMoments { mass: 1.25, b2: 0.5 };
        let back: MonoMoments = from_bytes(to_bytes(&mo));
        assert_eq!(back, mo);
    }

    #[test]
    fn vector_moments_shift_matches_direct() {
        let pts = [
            (Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0)),
            (Vec3::new(1.0, 1.0, 0.0), Vec3::new(0.0, 2.0, 0.0)),
            (Vec3::new(0.5, 0.0, 2.0), Vec3::new(0.0, 0.0, -1.0)),
        ];
        let wtot: f64 = pts.iter().map(|(_, a)| a.norm()).sum();
        let c = pts.iter().map(|&(p, a)| p * a.norm()).fold(Vec3::ZERO, |x, y| x + y) / wtot;

        let mut direct = VectorMoments::default();
        for &(p, a) in &pts {
            direct.accumulate_shifted(&VectorMoments::from_particle(p, &a, c), c, c);
        }

        // Merge one-by-one from each particle's own "centroid" (= itself).
        let mut merged = VectorMoments::default();
        for &(p, a) in &pts {
            let one = VectorMoments::from_particle(p, &a, p);
            merged.accumulate_shifted(&one, p, c);
        }
        assert!((direct.alpha - merged.alpha).norm() < 1e-12);
        for i in 0..3 {
            for j in 0..3 {
                assert!((direct.alpha_r[i][j] - merged.alpha_r[i][j]).abs() < 1e-12);
            }
        }
        assert!((direct.abs_alpha - merged.abs_alpha).abs() < 1e-12);
    }
}
