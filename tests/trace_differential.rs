//! Differential oracle for the traced treecode: the instrumented pipeline
//! against the O(N²) direct sum (see VERIFICATION.md, "Trace invariants").
//!
//! Three independent cross-checks on one seeded Plummer sphere:
//!
//! 1. **Physics** — treecode accelerations agree with the direct sum to
//!    RMS relative error < 1e-3 at the accuracy settings used.
//! 2. **Ledger vs walk** — the ledger's force-phase interaction counters
//!    equal the walk statistics the evaluation itself reports, and its
//!    flop counter equals the [`FlopCounter`] delta.
//! 3. **Direct-sum accounting** — the direct sum records exactly
//!    N·(N−1) particle–particle interactions, the closed form the paper's
//!    flop convention is anchored to.

use hot_base::flops::{FlopCounter, Kind};
use hot_core::Mac;
use hot_gravity::direct::direct_serial;
use hot_gravity::models::{bounding_domain, plummer};
use hot_gravity::treecode::{ForceCalc, TreecodeOptions};
use hot_trace::{Counter, Ledger, ModelClock};
use rand::SeedableRng;

const N: usize = 1000;
const EPS2: f64 = 1e-6;

#[test]
fn treecode_ledger_agrees_with_direct_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let (pos, _vel) = plummer(&mut rng, N);
    let mass = vec![1.0 / N as f64; N];
    let domain = bounding_domain(&pos);

    // Oracle: O(N²) direct sum, with its own interaction accounting.
    let direct_counter = FlopCounter::new();
    let exact = direct_serial(&pos, &mass, EPS2, &direct_counter);
    assert_eq!(
        direct_counter.get(Kind::GravPP),
        (N * (N - 1)) as u64,
        "direct sum must count exactly N(N-1) particle-particle interactions"
    );

    // Instrumented treecode at high accuracy.
    let counter = FlopCounter::new();
    let opts = TreecodeOptions {
        mac: Mac::BarnesHut { theta: 0.4 },
        bucket: 8,
        eps2: EPS2,
        quadrupole: true,
    };
    let mut trace = Ledger::new(ModelClock::paper_loki());
    let res =
        ForceCalc::new().compute_traced(domain, &pos, &mass, &opts, &counter, false, &mut trace);

    // 1. Physics against the oracle.
    let mut sum2 = 0.0;
    for (a, e) in res.acc.iter().zip(&exact) {
        let rel = (*a - *e).norm() / e.norm().max(1e-12);
        sum2 += rel * rel;
    }
    let rms = (sum2 / N as f64).sqrt();
    assert!(rms < 1e-3, "treecode vs direct RMS relative error {rms} >= 1e-3");

    // 2. Ledger counters against the walk's own statistics.
    let totals = trace.totals();
    assert_eq!(totals.get(Counter::PpInteractions), res.stats.pp);
    assert_eq!(totals.get(Counter::PcInteractions), res.stats.pc);
    assert_eq!(
        totals.interactions(),
        res.stats.interactions(),
        "ledger interaction total must equal the walk's"
    );
    assert_eq!(totals.get(Counter::CellsOpened), res.stats.opened);
    assert_eq!(
        totals.get(Counter::Flops),
        counter.report().flops(),
        "ledger flops must equal the FlopCounter delta for the evaluation"
    );

    // The treecode must actually have approximated: far fewer interactions
    // than the oracle, yet more than N (everything interacts with
    // something).
    assert!(totals.interactions() < (N * (N - 1)) as u64 / 2);
    assert!(totals.interactions() > N as u64);
}
