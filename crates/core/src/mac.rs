//! Multipole acceptance criteria (MAC).
//!
//! *"Effectively managing the errors introduced by this approximation is the
//! subject of an entire paper of ours"* — Salmon & Warren, "Skeletons from
//! the treecode closet" (JCP 111:136, 1994). Two criteria are provided:
//!
//! * [`Mac::BarnesHut`] — the classic geometric opening angle: accept a cell
//!   when its size-to-distance ratio is below θ.
//! * [`Mac::SalmonWarren`] — an absolute per-interaction acceleration error
//!   bound built from the cell's tracked second absolute moment `B₂`,
//!   the criterion family the paper's production runs used (they quote an
//!   *RMS force accuracy better than 10⁻³*).
//!
//! Both are evaluated against a *sink group* (center + radius), because the
//! traversal amortizes one walk over a bucket of nearby sinks.

use crate::moments::Moments;
use crate::summary::Summary;
use hot_base::Vec3;

/// A multipole acceptance criterion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mac {
    /// Accept when `bmax / d < θ`, with `d` the distance from the cell's
    /// expansion center to the nearest point of the sink group.
    BarnesHut {
        /// Opening angle, typically 0.5–1.0. Smaller is more accurate.
        theta: f64,
    },
    /// Accept when a rigorous bound on the acceleration error of the
    /// truncated expansion falls below `delta` (code units: `G·m/L²`).
    SalmonWarren {
        /// Maximum tolerated per-interaction acceleration error.
        delta: f64,
    },
}

impl Mac {
    /// Decide whether the cell summarised by `cell` — a local cell, a
    /// remote one or a top-tree node alike — may interact as a multipole
    /// with a sink group of radius `gradius` about `gcenter`.
    #[inline]
    pub fn accepts<M: Moments>(&self, cell: &Summary<M>, gcenter: Vec3, gradius: f64) -> bool {
        let (center, bmax) = (cell.center, cell.bmax);
        // Distance from expansion center to the nearest possible sink.
        let d = (center - gcenter).norm() - gradius;
        if d <= bmax {
            // Sinks may lie inside the cell's matter radius: never accept.
            return false;
        }
        match *self {
            Mac::BarnesHut { theta } => bmax < theta * d,
            Mac::SalmonWarren { delta } => {
                // Truncating after the quadrupole-free monopole (dipole
                // vanishes about the centroid) leaves an error dominated by
                // the second moment:  |δa| ≤ 3 B₂ / (d² (d − bmax)²).
                // (Salmon & Warren 1994, specialised to p = 1 with the
                // conservative (d − b) denominator.)
                let err = 3.0 * cell.moments.b2() / (d * d * (d - bmax) * (d - bmax));
                err < delta
            }
        }
    }

    /// A human-readable name for benchmark tables.
    pub fn name(&self) -> String {
        match self {
            Mac::BarnesHut { theta } => format!("BH(theta={theta})"),
            Mac::SalmonWarren { delta } => format!("SW(delta={delta:e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::MassMoments;
    use hot_base::SymMat3;
    use hot_morton::Key;

    fn cell_at(center: Vec3, bmax: f64, mass: f64, b2: f64) -> Summary<MassMoments> {
        let moments = MassMoments { mass, quad: SymMat3::ZERO, b2 };
        Summary { key: Key::ROOT, n: 1, center, bmax, wsum: mass, moments }
    }

    #[test]
    fn barnes_hut_accepts_far_rejects_near() {
        let mac = Mac::BarnesHut { theta: 0.7 };
        let cell = cell_at(Vec3::new(10.0, 0.0, 0.0), 1.0, 1.0, 1.0);
        // Sink at origin, radius 0: d = 10, bmax/d = 0.1 < 0.7 → accept.
        assert!(mac.accepts(&cell, Vec3::ZERO, 0.0));
        // Sink group reaching to within 1.1 of the cell: reject.
        assert!(!mac.accepts(&cell, Vec3::ZERO, 8.9));
        // Sink inside the cell radius: reject regardless of theta.
        let huge = Mac::BarnesHut { theta: 100.0 };
        assert!(!huge.accepts(&cell, Vec3::new(9.5, 0.0, 0.0), 0.0));
    }

    #[test]
    fn barnes_hut_theta_monotone() {
        let cell = cell_at(Vec3::new(3.0, 0.0, 0.0), 1.0, 1.0, 1.0);
        // bmax/d = 1/3: accepted by theta > 1/3 only.
        assert!(!Mac::BarnesHut { theta: 0.2 }.accepts(&cell, Vec3::ZERO, 0.0));
        assert!(Mac::BarnesHut { theta: 0.5 }.accepts(&cell, Vec3::ZERO, 0.0));
    }

    #[test]
    fn salmon_warren_tightens_with_delta() {
        let cell = cell_at(Vec3::new(5.0, 0.0, 0.0), 1.0, 10.0, 4.0);
        // err = 3*4 / (25 * 16) = 0.03
        assert!(Mac::SalmonWarren { delta: 0.05 }.accepts(&cell, Vec3::ZERO, 0.0));
        assert!(!Mac::SalmonWarren { delta: 0.01 }.accepts(&cell, Vec3::ZERO, 0.0));
    }

    #[test]
    fn salmon_warren_point_cell_always_accepted_outside() {
        // b2 = 0 (a point mass): any exterior sink accepts.
        let cell = cell_at(Vec3::new(1.0, 0.0, 0.0), 0.0, 5.0, 0.0);
        assert!(Mac::SalmonWarren { delta: 1e-12 }.accepts(&cell, Vec3::ZERO, 0.5));
    }

    #[test]
    fn group_radius_shrinks_effective_distance() {
        let mac = Mac::BarnesHut { theta: 0.5 };
        let cell = cell_at(Vec3::new(4.0, 0.0, 0.0), 1.0, 1.0, 1.0);
        assert!(mac.accepts(&cell, Vec3::ZERO, 0.0)); // d=4
        assert!(!mac.accepts(&cell, Vec3::ZERO, 2.5)); // d=1.5 → 1/1.5 > 0.5
    }

    #[test]
    fn names() {
        assert!(Mac::BarnesHut { theta: 0.8 }.name().contains("0.8"));
        assert!(Mac::SalmonWarren { delta: 1e-4 }.name().starts_with("SW"));
    }
}
