//! The hashed oct-tree key and its algebra.

use crate::dilate::{deinterleave3, interleave3, COORD_MASK};
use hot_base::{Aabb, Vec3};
use std::fmt;

/// Maximum tree depth: 21 octant digits of 3 bits plus the placeholder bit
/// exactly fill a `u64`.
pub const MAX_DEPTH: u32 = 21;

/// A hashed oct-tree key.
///
/// Bit layout (for a cell at level `L`): bit `3L` is the placeholder `1`;
/// below it, `L` octant digits of 3 bits each, most significant digit =
/// topmost tree level. The root is `Key(1)`; particle keys sit at level
/// [`MAX_DEPTH`] with the placeholder in bit 63.
///
/// Within one level, ordering keys numerically is exactly Morton order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(L{}:", self.level())?;
        // Print octant digits from the root down.
        for l in (0..self.level()).rev() {
            write!(f, "{}", (self.0 >> (3 * l)) & 7)?;
        }
        write!(f, ")")
    }
}

impl Key {
    /// The root cell key.
    pub const ROOT: Key = Key(1);

    /// An impossible key (0 has no placeholder bit); usable as a sentinel in
    /// hash tables.
    pub const INVALID: Key = Key(0);

    /// Level of this key: 0 for the root, [`MAX_DEPTH`] for particle keys.
    #[inline(always)]
    pub fn level(self) -> u32 {
        debug_assert!(self.0 != 0, "level of invalid key");
        (63 - self.0.leading_zeros()) / 3
    }

    /// Parent cell key. The root is its own parent's child; calling this on
    /// the root is a logic error.
    #[inline(always)]
    pub fn parent(self) -> Key {
        debug_assert!(self != Key::ROOT, "root has no parent");
        Key(self.0 >> 3)
    }

    /// The `d`-th child (0–7, Morton digit: bit 0 = upper x half, bit 1 =
    /// upper y, bit 2 = upper z — matching [`Aabb::octant`]).
    #[inline(always)]
    pub fn child(self, d: u8) -> Key {
        debug_assert!(d < 8);
        debug_assert!(self.level() < MAX_DEPTH, "child of max-depth key");
        Key((self.0 << 3) | d as u64)
    }

    /// Ancestor at `level`, which must be ≤ `self.level()`.
    #[inline]
    pub fn ancestor_at(self, level: u32) -> Key {
        let my = self.level();
        debug_assert!(level <= my);
        Key(self.0 >> (3 * (my - level)))
    }

    /// Is `self` an ancestor of (or equal to) `other`?
    #[inline]
    pub fn is_ancestor_of(self, other: Key) -> bool {
        let la = self.level();
        let lb = other.level();
        la <= lb && other.ancestor_at(la) == self
    }

    /// Smallest max-depth key covered by this cell (its own subtree range
    /// start). Keys of particles inside the cell fall in
    /// `[range_begin(), range_last()]`.
    #[inline]
    pub fn range_begin(self) -> Key {
        Key(self.0 << (3 * (MAX_DEPTH - self.level())))
    }

    /// Largest max-depth key covered by this cell (inclusive). Never wraps:
    /// the root's range ends at `u64::MAX`.
    #[inline]
    pub fn range_last(self) -> Key {
        let shift = 3 * (MAX_DEPTH - self.level());
        Key(self.0.wrapping_add(1).wrapping_shl(shift).wrapping_sub(1))
    }

    /// Build a particle key at [`MAX_DEPTH`] from a position inside
    /// `domain` (a cube; positions on the upper faces are clamped in).
    pub fn from_point(p: Vec3, domain: &Aabb) -> Key {
        let ext = domain.extent();
        debug_assert!(ext.x > 0.0 && ext.y > 0.0 && ext.z > 0.0, "degenerate domain");
        let n = (1u64 << MAX_DEPTH) as f64;
        let mut idx = [0u64; 3];
        for (i, v) in idx.iter_mut().enumerate() {
            let frac = (p[i] - domain.min[i]) / ext[i];
            // Clamp: initial conditions sometimes place a particle exactly on
            // the upper boundary.
            let cell = (frac * n).floor();
            *v = (cell.max(0.0).min(n - 1.0)) as u64;
        }
        Key((1u64 << 63) | interleave3(idx[0], idx[1], idx[2]))
    }

    /// Integer lattice coordinates of this cell at its own level.
    pub fn coords(self) -> (u64, u64, u64) {
        let l = self.level();
        let digits = self.0 & !(1u64 << (3 * l));
        let (x, y, z) = deinterleave3(digits);
        (x & COORD_MASK, y & COORD_MASK, z & COORD_MASK)
    }

    /// Geometric box of this cell inside the root `domain` (a cube).
    pub fn cell_aabb(self, domain: &Aabb) -> Aabb {
        let l = self.level();
        let n = (1u64 << l) as f64;
        let (ix, iy, iz) = self.coords();
        let ext = domain.extent();
        let cell = Vec3::new(ext.x / n, ext.y / n, ext.z / n);
        let min = Vec3::new(
            domain.min.x + ix as f64 * cell.x,
            domain.min.y + iy as f64 * cell.y,
            domain.min.z + iz as f64 * cell.z,
        );
        Aabb::new(min, min + cell)
    }

    /// Centre of this cell's box inside `domain`.
    pub fn cell_center(self, domain: &Aabb) -> Vec3 {
        self.cell_aabb(domain).center()
    }

    /// A 64-bit mix of the key for hash-table placement. The original code
    /// used simple masking of the low bits; a Fibonacci multiply spreads
    /// keys whose low digits coincide (siblings) across the table.
    #[inline(always)]
    pub fn hash64(self) -> u64 {
        // Golden-ratio multiplicative hashing; xor-fold the top bits down.
        let h = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }

    /// Iterate the eight children of this cell.
    pub fn children(self) -> impl Iterator<Item = Key> {
        (0u8..8).map(move |d| self.child(d))
    }

    /// The raw 64-bit value.
    #[inline(always)]
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit() -> Aabb {
        Aabb::unit()
    }

    #[test]
    fn root_properties() {
        assert_eq!(Key::ROOT.level(), 0);
        assert_eq!(Key::ROOT.range_begin(), Key(1u64 << 63));
        assert_eq!(Key::ROOT.range_last(), Key(u64::MAX));
    }

    #[test]
    fn child_parent_roundtrip() {
        let k = Key::ROOT.child(5).child(0).child(7);
        assert_eq!(k.level(), 3);
        assert_eq!(k.parent().child(7), k);
        assert_eq!(k.parent(), Key::ROOT.child(5).child(0));
        assert_eq!(k.parent().parent().parent(), Key::ROOT);
    }

    #[test]
    fn ancestor_relations() {
        let a = Key::ROOT.child(3);
        let b = a.child(1).child(6);
        assert!(a.is_ancestor_of(b));
        assert!(Key::ROOT.is_ancestor_of(b));
        assert!(a.is_ancestor_of(a));
        assert!(!b.is_ancestor_of(a));
        assert_eq!(b.ancestor_at(1), a);
    }

    #[test]
    fn from_point_centre_maps_to_last_octant_boundary() {
        // The exact centre belongs to octant 7 (upper halves, half-open
        // convention).
        let k = Key::from_point(Vec3::splat(0.5), &unit());
        assert_eq!(k.ancestor_at(1), Key::ROOT.child(7));
        // A point just below centre is in octant 0.
        let k = Key::from_point(Vec3::splat(0.5 - 1e-9), &unit());
        assert_eq!(k.ancestor_at(1), Key::ROOT.child(0));
    }

    #[test]
    fn from_point_clamps_boundaries() {
        let k = Key::from_point(Vec3::splat(1.0), &unit());
        assert_eq!(k.level(), MAX_DEPTH);
        let (x, y, z) = k.coords();
        assert_eq!((x, y, z), (COORD_MASK, COORD_MASK, COORD_MASK));
        let k0 = Key::from_point(Vec3::ZERO, &unit());
        assert_eq!(k0.coords(), (0, 0, 0));
    }

    #[test]
    fn cell_aabb_of_root_is_domain() {
        let d = Aabb::cube(Vec3::splat(3.0), 2.0);
        let b = Key::ROOT.cell_aabb(&d);
        assert!((b.min - d.min).norm() < 1e-12);
        assert!((b.max - d.max).norm() < 1e-12);
    }

    #[test]
    fn octant_matches_aabb_octant() {
        let d = Aabb::cube(Vec3::splat(0.0), 4.0);
        for o in 0..8u8 {
            let kb = Key::ROOT.child(o).cell_aabb(&d);
            let ab = d.octant(o as usize);
            assert!((kb.min - ab.min).norm() < 1e-12, "octant {o}");
            assert!((kb.max - ab.max).norm() < 1e-12, "octant {o}");
        }
    }

    #[test]
    fn range_nesting() {
        let a = Key::ROOT.child(2);
        let b = a.child(5);
        assert!(a.range_begin() <= b.range_begin());
        assert!(b.range_last() <= a.range_last());
        // Sibling ranges tile the parent contiguously.
        for d in 0..7u8 {
            assert_eq!(a.child(d).range_last().0 + 1, a.child(d + 1).range_begin().0);
        }
    }

    #[test]
    fn debug_format() {
        let k = Key::ROOT.child(5).child(0);
        assert_eq!(format!("{k:?}"), "Key(L2:50)");
    }

    proptest! {
        #[test]
        fn point_roundtrip_through_cell(x in 0.0f64..1.0, y in 0.0f64..1.0, z in 0.0f64..1.0) {
            let p = Vec3::new(x, y, z);
            let k = Key::from_point(p, &unit());
            prop_assert_eq!(k.level(), MAX_DEPTH);
            // The particle's max-depth cell must contain the point (up to
            // float rounding at the very edge of a 2^-21 cell).
            let b = k.cell_aabb(&unit());
            prop_assert!((0..3).all(|i| b.min[i] - 1e-12 <= p[i] && p[i] <= b.max[i] + 1e-12));
        }

        #[test]
        fn morton_order_matches_key_order(
            x1 in 0.0f64..1.0, y1 in 0.0f64..1.0, z1 in 0.0f64..1.0,
            x2 in 0.0f64..1.0, y2 in 0.0f64..1.0, z2 in 0.0f64..1.0,
        ) {
            // Keys at the same depth compare like their interleaved lattice
            // coordinates (definition of Morton order).
            let ka = Key::from_point(Vec3::new(x1, y1, z1), &unit());
            let kb = Key::from_point(Vec3::new(x2, y2, z2), &unit());
            let (ax, ay, az) = ka.coords();
            let (bx, by, bz) = kb.coords();
            let ia = crate::dilate::interleave3(ax, ay, az);
            let ib = crate::dilate::interleave3(bx, by, bz);
            prop_assert_eq!(ka.cmp(&kb), ia.cmp(&ib));
        }

        #[test]
        fn ancestor_contains_descendant_range(digits in proptest::collection::vec(0u8..8, 1..21)) {
            let mut k = Key::ROOT;
            for &d in &digits {
                k = k.child(d);
            }
            for l in 0..k.level() {
                let anc = k.ancestor_at(l);
                prop_assert!(anc.is_ancestor_of(k));
                prop_assert!(anc.range_begin() <= k.range_begin());
                prop_assert!(k.range_last() <= anc.range_last());
            }
        }

        #[test]
        fn cell_aabb_nests(digits in proptest::collection::vec(0u8..8, 1..10)) {
            let d = unit();
            let mut k = Key::ROOT;
            let mut parent_box = k.cell_aabb(&d);
            for &o in &digits {
                k = k.child(o);
                let b = k.cell_aabb(&d);
                prop_assert!(b.min.x >= parent_box.min.x - 1e-12);
                prop_assert!(b.max.x <= parent_box.max.x + 1e-12);
                prop_assert!(b.min.y >= parent_box.min.y - 1e-12);
                prop_assert!(b.max.y <= parent_box.max.y + 1e-12);
                prop_assert!((b.extent().x - parent_box.extent().x * 0.5).abs() < 1e-12);
                parent_box = b;
            }
        }

        #[test]
        fn hash_is_injective_on_samples(a in 1u64.., b in 1u64..) {
            // Not a proof of injectivity (it is a bijection composed with
            // xor-fold, so collisions exist), but equal hashes for random
            // distinct keys would indicate a blunder.
            let (ka, kb) = (Key(a), Key(b));
            if ka != kb {
                // xor-fold of a bijective mix: collisions are ~2^-32 likely.
                prop_assert!(ka.hash64() != kb.hash64() || a == b);
            }
        }
    }
}
