//! Checkpoint/restart for [`CosmoSim`]: schema-versioned, checksummed,
//! bitwise-exact.
//!
//! The paper reports *"no crashes, no restarts"* for the Loki runs as a
//! point of pride precisely because restarts were routine on machines of
//! that era — production treecodes checkpointed at step boundaries and
//! resumed after node failures. This module is that restart path, with one
//! requirement the original codes shared: a resumed run must be
//! **bitwise identical** to an uninterrupted one.
//!
//! That rules out the particle [`snapshot`](crate::snapshot) format as a
//! carrier: snapshots store coordinate velocities `u = w/a²`, and the
//! `w → u → w` round trip through two multiplications is not exact in
//! IEEE-754. A checkpoint instead stores the raw canonical momenta `w`
//! together with everything else a resume needs — scale factor, step
//! count, sphere center, and the full treecode configuration — so
//! [`load`] reconstructs the simulation without any re-supplied arguments.
//!
//! ## Format (version 3)
//!
//! Little-endian throughout, `u64` sizes (the same >2³¹-byte discipline as
//! the snapshot writer):
//!
//! ```text
//! magic   u64   "HOT97CKP"
//! version u64   3
//! len     u64   body length in bytes
//! crc     u32   CRC-32 (IEEE) of the body
//! body:
//!   steps u64, a f64, center 3×f64,
//!   mac_kind u8 (0 = BarnesHut, 1 = SalmonWarren), mac_param f64,
//!   bucket u64, eps2 f64, flags u8 (bit 0 = quadrupole, bit 1 reserved: written
//!   as 0, ignored on read; higher bits rejected),
//!   n u64, pos 3n×f64, mom 3n×f64, mass n×f64
//! ```
//!
//! Version 1 was the snapshot-backed checkpoint (velocities, no opts); it
//! is not readable here — the magic differs, so a v1 file fails fast with
//! a clear error rather than resuming with silently perturbed momenta.

use crate::sim::CosmoSim;
use hot_base::Vec3;
use hot_comm::crc32;
use hot_core::Mac;
use hot_gravity::treecode::TreecodeOptions;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: u64 = 0x484F_5439_3743_4B50; // "HOT97CKP"

/// Checkpoint schema version. Version 1 was the lossy snapshot-backed
/// checkpoint; version 2 stored raw momenta and the full configuration;
/// version 3 widens the quadrupole byte into a flags byte (bit 0 =
/// quadrupole, bit 1 reserved).
pub const CHECKPOINT_VERSION: u64 = 3;

/// Why a checkpoint failed to load. Typed so recovery code — the
/// crash-stop supervisor rolls back through this path with a run at
/// stake — can distinguish "file is damaged, refuse" from transient I/O,
/// and so tests can pin the exact rejection reason instead of a panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error (open, read, write).
    Io(std::io::Error),
    /// The file ended before the declared header or body was complete.
    Truncated {
        /// What was being read when the data ran out.
        what: &'static str,
    },
    /// The leading magic is not `"HOT97CKP"` — not a checkpoint at all
    /// (a v1 snapshot-backed "checkpoint" lands here by design).
    BadMagic {
        /// The 8 bytes found where the magic belongs.
        found: u64,
    },
    /// A real checkpoint, but from an incompatible schema generation.
    Version {
        /// Version stamped in the file.
        found: u64,
        /// Version this build reads.
        want: u64,
    },
    /// The body does not hash to the stored CRC-32: torn write or bit rot.
    CrcMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the body actually read.
        computed: u32,
    },
    /// The body passed the CRC but does not decode: unknown MAC kind,
    /// unknown option flags, or trailing bytes past the decoded state.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated { what } => {
                write!(f, "truncated checkpoint: file ended inside {what}")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "bad checkpoint magic {found:#018x} (not a HOT97CKP file)")
            }
            CheckpointError::Version { found, want } => {
                write!(f, "unsupported checkpoint version {found} (want {want})")
            }
            CheckpointError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint body: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

fn bad(msg: String) -> CheckpointError {
    CheckpointError::Malformed(msg)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f64(out, v.x);
    put_f64(out, v.y);
    put_f64(out, v.z);
}

struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.data.len() - self.at < n {
            return Err(bad(format!(
                "truncated checkpoint body: need {n} bytes at offset {}",
                self.at
            )));
        }
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    fn vec3(&mut self) -> Result<Vec3, CheckpointError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }
}

/// Serialize the full resume state of `sim` into a version-3 body.
fn encode_body(sim: &CosmoSim) -> Vec<u8> {
    let n = sim.pos.len();
    let mut body = Vec::with_capacity(8 + 8 + 24 + 1 + 8 + 8 + 8 + 1 + 8 + n * 56);
    put_u64(&mut body, sim.steps);
    put_f64(&mut body, sim.a);
    put_vec3(&mut body, sim.center);
    let (kind, param) = match sim.opts.mac {
        Mac::BarnesHut { theta } => (0u8, theta),
        Mac::SalmonWarren { delta } => (1u8, delta),
    };
    body.push(kind);
    put_f64(&mut body, param);
    put_u64(&mut body, sim.opts.bucket as u64);
    put_f64(&mut body, sim.opts.eps2);
    // Flags: bit 0 quadrupole; bit 1 reserved, written as 0.
    body.push(u8::from(sim.opts.quadrupole));
    put_u64(&mut body, n as u64);
    for &p in &sim.pos {
        put_vec3(&mut body, p);
    }
    for &w in &sim.mom {
        put_vec3(&mut body, w);
    }
    for &m in &sim.mass {
        put_f64(&mut body, m);
    }
    body
}

/// Reconstruct a [`CosmoSim`] from a version-3 body.
fn decode_body(body: &[u8]) -> Result<CosmoSim, CheckpointError> {
    let mut c = Cursor { data: body, at: 0 };
    let steps = c.u64()?;
    let a = c.f64()?;
    let center = c.vec3()?;
    let kind = c.u8()?;
    let param = c.f64()?;
    let mac = match kind {
        0 => Mac::BarnesHut { theta: param },
        1 => Mac::SalmonWarren { delta: param },
        other => return Err(bad(format!("unknown MAC kind {other}"))),
    };
    let bucket = c.u64()? as usize;
    let eps2 = c.f64()?;
    let flags = c.u8()?;
    // Bit 1 is reserved: checkpoints written before the treecode's
    // `parallel` option was removed have it set, so it is accepted and
    // ignored.
    if flags & !0b11 != 0 {
        return Err(bad(format!("unknown option flags {flags:#04x}")));
    }
    let opts = TreecodeOptions { mac, bucket, eps2, quadrupole: flags & 0b01 != 0 };
    let n = c.u64()? as usize;
    let mut pos = Vec::with_capacity(n);
    for _ in 0..n {
        pos.push(c.vec3()?);
    }
    let mut mom = Vec::with_capacity(n);
    for _ in 0..n {
        mom.push(c.vec3()?);
    }
    let mut mass = Vec::with_capacity(n);
    for _ in 0..n {
        mass.push(c.f64()?);
    }
    if c.at != body.len() {
        return Err(bad(format!(
            "trailing garbage: {} bytes past the decoded state",
            body.len() - c.at
        )));
    }
    Ok(CosmoSim {
        pos,
        mom,
        mass,
        a,
        center,
        opts,
        steps,
        calc: hot_gravity::ForceCalc::new(),
        end_force: None,
    })
}

/// Write a checkpoint of `sim` to `path`. Returns bytes written.
///
/// The body is checksummed (CRC-32) so a torn or bit-rotted file is
/// rejected at [`load`] instead of resuming a subtly wrong run. The file
/// is written to a `.tmp` sibling and atomically renamed into place, so a
/// crash *during checkpointing* leaves the previous checkpoint intact —
/// the supervisor's rollback target must never be a half-written file.
pub fn save(sim: &CosmoSim, path: &Path) -> std::io::Result<u64> {
    let body = encode_body(sim);
    let tmp = path.with_extension("tmp");
    {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        w.write_all(&MAGIC.to_le_bytes())?;
        w.write_all(&CHECKPOINT_VERSION.to_le_bytes())?;
        w.write_all(&(body.len() as u64).to_le_bytes())?;
        w.write_all(&crc32(&body).to_le_bytes())?;
        w.write_all(&body)?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(28 + body.len() as u64)
}

fn head_field<const N: usize>(head: &[u8; 28], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&head[at..at + N]);
    out
}

/// Read a checkpoint back, reporting exactly why a damaged file was
/// rejected: [`CheckpointError::Truncated`], [`CheckpointError::BadMagic`]
/// (a v1 snapshot-backed file lands here), [`CheckpointError::Version`],
/// [`CheckpointError::CrcMismatch`], or [`CheckpointError::Malformed`].
pub fn load(path: &Path) -> Result<CosmoSim, CheckpointError> {
    let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut head = [0u8; 28];
    read_or_truncated(&mut r, &mut head, "the 28-byte header")?;
    let magic = u64::from_le_bytes(head_field(&head, 0));
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic { found: magic });
    }
    let version = u64::from_le_bytes(head_field(&head, 8));
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version { found: version, want: CHECKPOINT_VERSION });
    }
    let len = u64::from_le_bytes(head_field(&head, 16)) as usize;
    let crc = u32::from_le_bytes(head_field(&head, 24));
    // Bound the allocation by what the file can actually hold: a corrupted
    // length field must be rejected as truncation, not honored as a
    // multi-petabyte allocation request.
    let file_len = r.get_ref().metadata()?.len();
    if len as u64 > file_len.saturating_sub(28) {
        return Err(CheckpointError::Truncated { what: "the declared body" });
    }
    let mut body = vec![0u8; len];
    read_or_truncated(&mut r, &mut body, "the declared body")?;
    let mut extra = [0u8; 1];
    if r.read(&mut extra)? != 0 {
        return Err(bad("file longer than its declared body".into()));
    }
    let got = crc32(&body);
    if got != crc {
        return Err(CheckpointError::CrcMismatch { stored: crc, computed: got });
    }
    decode_body(&body)
}

/// `read_exact` with end-of-file reported as [`CheckpointError::Truncated`]
/// naming `what` was being read; other I/O errors pass through.
fn read_or_truncated(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { what }
        } else {
            CheckpointError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn sample(n: usize, seed: u64, opts: TreecodeOptions) -> CosmoSim {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut r = move || rng.gen::<f64>() * 2.0 - 1.0;
        CosmoSim {
            pos: (0..n).map(|_| Vec3::new(r(), r(), r()) * 10.0).collect(),
            mom: (0..n).map(|_| Vec3::new(r(), r(), r()) * 0.3).collect(),
            mass: (0..n).map(|_| 0.5 + (r() + 1.0)).collect(),
            a: 0.37,
            center: Vec3::new(1.0, -2.0, 3.0),
            opts,
            steps: 17,
            calc: hot_gravity::ForceCalc::new(),
            end_force: None,
        }
    }

    fn assert_bitwise_equal(a: &CosmoSim, b: &CosmoSim) {
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.a.to_bits(), b.a.to_bits());
        assert_eq!(a.center, b.center);
        assert_eq!(a.opts, b.opts);
        assert_eq!(a.pos.len(), b.pos.len());
        for i in 0..a.pos.len() {
            for (x, y) in [
                (a.pos[i].x, b.pos[i].x),
                (a.pos[i].y, b.pos[i].y),
                (a.pos[i].z, b.pos[i].z),
                (a.mom[i].x, b.mom[i].x),
                (a.mom[i].y, b.mom[i].y),
                (a.mom[i].z, b.mom[i].z),
                (a.mass[i], b.mass[i]),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "particle {i} differs");
            }
        }
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let dir = std::env::temp_dir().join("hot97_ckpt_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.bin");
        for (seed, opts) in [
            (1, TreecodeOptions::default()),
            (
                2,
                TreecodeOptions {
                    mac: Mac::SalmonWarren { delta: 1e-5 },
                    bucket: 24,
                    eps2: 0.0025,
                    quadrupole: false,
                },
            ),
        ] {
            let sim = sample(137, seed, opts);
            let bytes = save(&sim, &path).unwrap();
            assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
            let back = load(&path).unwrap();
            assert_bitwise_equal(&sim, &back);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_sim_roundtrips() {
        let dir = std::env::temp_dir().join("hot97_ckpt_empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.bin");
        let sim = sample(0, 3, TreecodeOptions::default());
        save(&sim, &path).unwrap();
        let back = load(&path).unwrap();
        assert_bitwise_equal(&sim, &back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_corruption_is_rejected() {
        let dir = std::env::temp_dir().join("hot97_ckpt_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.bin");
        let sim = sample(20, 4, TreecodeOptions::default());
        save(&sim, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit in the magic, the version, the CRC field and a
        // spread of body positions: every single one must be rejected.
        let probes = [0usize, 8, 24, 28, 40, 64, clean.len() / 2, clean.len() - 1];
        for &at in &probes {
            let mut data = clean.clone();
            data[at] ^= 0x10;
            std::fs::write(&path, &data).unwrap();
            assert!(load(&path).is_err(), "corruption at byte {at} accepted");
        }
        // Truncation and extension are also rejected.
        std::fs::write(&path, &clean[..clean.len() - 1]).unwrap();
        assert!(load(&path).is_err(), "truncated file accepted");
        let mut longer = clean.clone();
        longer.push(0);
        std::fs::write(&path, &longer).unwrap();
        assert!(load(&path).is_err(), "over-long file accepted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each damage class maps to its own [`CheckpointError`] variant — the
    /// typed contract recovery code and operators diagnose by.
    #[test]
    fn rejection_reasons_are_typed() {
        let dir = std::env::temp_dir().join("hot97_ckpt_typed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.bin");
        let sim = sample(12, 6, TreecodeOptions::default());
        save(&sim, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Truncated inside the header and inside the body.
        for cut in [10, clean.len() - 5] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let err = load(&path).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "cut at {cut}: got {err:?}"
            );
        }

        // Wrong magic.
        let mut wrong = clean.clone();
        wrong[0] ^= 0xff;
        std::fs::write(&path, &wrong).unwrap();
        assert!(matches!(load(&path).unwrap_err(), CheckpointError::BadMagic { .. }));

        // Future schema version.
        let mut vnext = clean.clone();
        vnext[8..16].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &vnext).unwrap();
        match load(&path).unwrap_err() {
            CheckpointError::Version { found, want } => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(want, CHECKPOINT_VERSION);
            }
            other => panic!("expected Version, got {other:?}"),
        }

        // Body bit-rot.
        let mut rotted = clean.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x01;
        std::fs::write(&path, &rotted).unwrap();
        assert!(matches!(load(&path).unwrap_err(), CheckpointError::CrcMismatch { .. }));

        // Missing file is plain I/O, not data damage.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(load(&path).unwrap_err(), CheckpointError::Io(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_snapshot_is_not_a_checkpoint() {
        // A v1 "checkpoint" was a particle snapshot; its magic differs and
        // it must be rejected loudly — with the BadMagic variant, not a
        // panic — never resumed with rounded momenta.
        let dir = std::env::temp_dir().join("hot97_ckpt_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("old");
        let snap = crate::snapshot::Snapshot {
            a: 0.5,
            pos: vec![Vec3::ZERO],
            vel: vec![Vec3::ZERO],
            mass: vec![1.0],
            id: vec![0],
        };
        crate::snapshot::write_stripe(&base, 0, &snap).unwrap();
        let err = load(&base.with_extension("stripe0000")).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err:?}");
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
