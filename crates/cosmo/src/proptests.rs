//! Property-based tests of the checkpoint codec (proptest).

#![cfg(test)]

use crate::checkpoint;
use crate::sim::CosmoSim;
use hot_base::Vec3;
use hot_core::Mac;
use hot_gravity::treecode::TreecodeOptions;
use proptest::prelude::*;

/// Arbitrary f64 *bit patterns* (NaNs and infinities included): the codec
/// must round-trip every one exactly, so the strategy must not be limited
/// to tidy finite values.
fn any_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn any_vec3() -> impl Strategy<Value = Vec3> {
    (any_f64_bits(), any_f64_bits(), any_f64_bits()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn any_mac() -> impl Strategy<Value = Mac> {
    (any::<bool>(), any_f64_bits()).prop_map(|(sw, p)| {
        if sw {
            Mac::SalmonWarren { delta: p }
        } else {
            Mac::BarnesHut { theta: p }
        }
    })
}

fn bits3(v: Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

proptest! {
    // Each case writes and re-reads a file; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A checkpoint round-trips the *entire* resume state bit-for-bit:
    /// positions, momenta, masses, scale factor, step count, center, and
    /// every treecode option. Flags bit 1 is reserved: older checkpoints
    /// have it set, so a body carrying it loads to the same state and is
    /// re-saved without it, while any higher bit is still `Malformed`.
    #[test]
    fn checkpoint_roundtrips_state_exactly(
        particles in proptest::collection::vec((any_vec3(), any_vec3(), any_f64_bits()), 0..40),
        a in any_f64_bits(),
        center in any_vec3(),
        mac in any_mac(),
        bucket in 1usize..1000,
        eps2 in any_f64_bits(),
        quadrupole in any::<bool>(),
        reserved_bit in any::<bool>(),
        steps in any::<u64>(),
        case in any::<u64>(),
    ) {
        let sim = CosmoSim {
            pos: particles.iter().map(|p| p.0).collect(),
            mom: particles.iter().map(|p| p.1).collect(),
            mass: particles.iter().map(|p| p.2).collect(),
            a,
            center,
            opts: TreecodeOptions { mac, bucket, eps2, quadrupole },
            steps,
            calc: hot_gravity::ForceCalc::new(),
            end_force: None,
        };
        let dir = std::env::temp_dir().join("hot97_ckpt_prop");
        std::fs::create_dir_all(&dir).unwrap();
        // Distinct file per case: proptest may run shrinking iterations
        // while another test thread holds the previous file.
        let path = dir.join(format!("ck_{case:016x}.bin"));
        checkpoint::save(&sim, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Header 28, then steps 8 + a 8 + center 24 + mac 1 + 8 + bucket 8
        // + eps2 8 bytes precede the flags byte.
        const FLAGS_AT: usize = 28 + 65;
        prop_assert_eq!(clean[FLAGS_AT], u8::from(quadrupole), "bit 1 must be written as 0");
        let with_flags = |flags: u8| {
            let mut data = clean.clone();
            data[FLAGS_AT] = flags;
            let crc = hot_comm::crc32(&data[28..]);
            data[24..28].copy_from_slice(&crc.to_le_bytes());
            data
        };
        std::fs::write(&path, with_flags(clean[FLAGS_AT] | 0b100)).unwrap();
        prop_assert!(matches!(
            checkpoint::load(&path),
            Err(checkpoint::CheckpointError::Malformed(_))
        ));
        std::fs::write(&path, with_flags(clean[FLAGS_AT] | (u8::from(reserved_bit) << 1))).unwrap();
        let back = checkpoint::load(&path).unwrap();
        checkpoint::save(&back, &path).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), clean, "save -> load -> save moved bytes");
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(back.steps, sim.steps);
        prop_assert_eq!(back.a.to_bits(), sim.a.to_bits());
        prop_assert_eq!(bits3(back.center), bits3(sim.center));
        prop_assert_eq!(back.opts.bucket, sim.opts.bucket);
        prop_assert_eq!(back.opts.eps2.to_bits(), sim.opts.eps2.to_bits());
        prop_assert_eq!(back.opts.quadrupole, sim.opts.quadrupole);
        match (back.opts.mac, sim.opts.mac) {
            (Mac::BarnesHut { theta: x }, Mac::BarnesHut { theta: y }) => {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            (Mac::SalmonWarren { delta: x }, Mac::SalmonWarren { delta: y }) => {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            (got, want) => prop_assert!(false, "MAC variant changed: {got:?} vs {want:?}"),
        }
        prop_assert_eq!(back.pos.len(), sim.pos.len());
        for i in 0..sim.pos.len() {
            prop_assert_eq!(bits3(back.pos[i]), bits3(sim.pos[i]), "pos {}", i);
            prop_assert_eq!(bits3(back.mom[i]), bits3(sim.mom[i]), "mom {}", i);
            prop_assert_eq!(back.mass[i].to_bits(), sim.mass[i].to_bits(), "mass {}", i);
        }
    }

    /// A checkpoint with any single flipped bit, or cut at any truncation
    /// offset, is always rejected — the rollback target can be damaged
    /// (torn write, bit rot) but never deserializes to a wrong-but-
    /// plausible state. This is the load-bearing property behind the
    /// supervisor's "rollback converges bitwise" guarantee.
    #[test]
    fn damaged_checkpoint_never_loads(
        particles in proptest::collection::vec((any_vec3(), any_vec3(), any_f64_bits()), 0..12),
        a in any_f64_bits(),
        steps in any::<u64>(),
        bit in any::<u64>(),
        cut in any::<u64>(),
        case in any::<u64>(),
    ) {
        let sim = CosmoSim {
            pos: particles.iter().map(|p| p.0).collect(),
            mom: particles.iter().map(|p| p.1).collect(),
            mass: particles.iter().map(|p| p.2).collect(),
            a,
            center: Vec3::ZERO,
            opts: TreecodeOptions::default(),
            steps,
            calc: hot_gravity::ForceCalc::new(),
            end_force: None,
        };
        let dir = std::env::temp_dir().join("hot97_ckpt_prop_damage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ck_{case:016x}.bin"));
        checkpoint::save(&sim, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Single bit flip anywhere in the file.
        let at = (bit / 8) as usize % clean.len();
        let mut flipped = clean.clone();
        flipped[at] ^= 1u8 << (bit % 8);
        std::fs::write(&path, &flipped).unwrap();
        prop_assert!(
            checkpoint::load(&path).is_err(),
            "bit {} of byte {} flipped and the checkpoint still loaded",
            bit % 8,
            at
        );

        // Truncation at any offset short of the full file.
        let keep = (cut as usize) % clean.len();
        std::fs::write(&path, &clean[..keep]).unwrap();
        prop_assert!(
            checkpoint::load(&path).is_err(),
            "checkpoint truncated to {keep} of {} bytes still loaded",
            clean.len()
        );
        std::fs::remove_file(&path).ok();
    }
}
