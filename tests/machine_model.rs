//! Integration tests of the benchmark/model layer: the NPB kernels on the
//! comm substrate combined with the 1997 machine models must reproduce the
//! paper's *qualitative* rankings (Table 3's shape), and the headline
//! price/performance arithmetic must come out as printed.

use hot97::comm::RunConfig;
use hot97::machine::cost::{dollars_per_mflop, loki_sept_1996};
use hot97::machine::perf::{predict, PhaseCount};
use hot97::machine::specs::{ASCI_RED_6800, JANUS_16, LOKI};

/// IS is the benchmark where Loki loses hardest to ASCI Red (14.8 vs 38.0
/// in Table 3), because it is message-bandwidth bound. EP barely cares.
/// Run both kernels, model both machines, check the ratio ordering.
#[test]
fn table3_shape_is_worse_on_loki_than_ep() {
    let np = 8u32;
    let is_out = RunConfig::builder().np(np).run(|c| hot97::npb::is::run(c, 15, 16));
    let ep_out = RunConfig::builder().np(np).run(|c| hot97::npb::ep::run(c, 15).0);
    assert!(is_out.results.iter().all(|r| r.verified));
    assert!(ep_out.results.iter().all(|r| r.verified));

    let model = |ops: u64, traffic: &[hot97::comm::TrafficStats], per_proc: f64, m: &hot97::machine::MachineSpec| {
        let compute = ops as f64 / (np as f64 * per_proc * 1e6);
        let comm = m.network.phase_comm_time(traffic);
        ops as f64 / (compute + comm) / 1e6
    };
    let is_ops = is_out.results[0].ops;
    let ep_ops = ep_out.results[0].ops;
    let is_loki = model(is_ops, &is_out.stats, 25.0, &LOKI);
    let is_red = model(is_ops, &is_out.stats, 29.0, &JANUS_16);
    let ep_loki = model(ep_ops, &ep_out.stats, 0.6, &LOKI);
    let ep_red = model(ep_ops, &ep_out.stats, 0.6, &JANUS_16);

    let is_ratio = is_red / is_loki;
    let ep_ratio = ep_red / ep_loki;
    assert!(
        is_ratio > ep_ratio,
        "IS must suffer more on fast ethernet: IS red/loki = {is_ratio:.2}, EP = {ep_ratio:.2}"
    );
    assert!(is_ratio > 1.2, "the network gap must show on IS: {is_ratio:.2}");
    assert!(ep_ratio < 1.1, "EP barely communicates: {ep_ratio:.2}");
}

/// The paper's own numbers must be stationary points of the model: feeding
/// the measured interaction counts back in reproduces the quoted Gflops.
#[test]
fn headline_numbers_reproduce() {
    // N² benchmark: 1e6² × 38 × 4 flops in 239.3 s = 635 Gflops.
    let phase = PhaseCount {
        flops: 1_000_000u64 * 1_000_000 * 38 * 4,
        max_rank_flops: 0,
        traffic: vec![],
    };
    let p = predict(&ASCI_RED_6800, &phase);
    assert!((p.serial_s - 239.3).abs() < 3.0, "{p:?}");
    assert!((p.mflops / 1e3 - 635.0).abs() < 8.0);

    // Loki initial phase: 1.15e12 interactions in 36973 s = 1.19 Gflops.
    let phase = PhaseCount {
        flops: (1.15e12 * 38.0) as u64,
        max_rank_flops: 0,
        traffic: vec![],
    };
    let p = predict(&LOKI, &phase);
    assert!((p.mflops / 1e3 - 1.19).abs() < 0.05, "{p:?}");

    // $58/Mflop for the ten-day 879 Mflops run on the $51,379 machine.
    let dpm = dollars_per_mflop(loki_sept_1996().total(), 879.0);
    assert!((dpm - 58.45).abs() < 0.5);
}

/// Treecode beats N² catastrophically at the paper's scale — the 1e5
/// efficiency headline, computed from our own measured scaling.
#[test]
fn algorithmic_advantage_order_of_magnitude() {
    use hot97::base::flops::FlopCounter;
    use hot97::base::Aabb;
    use hot97::gravity::models::uniform_box;
    use hot97::gravity::treecode::{ForceCalc, TreecodeOptions};
    use rand::SeedableRng;

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut per_particle = Vec::new();
    let mut calc = ForceCalc::new();
    for &n in &[2_000usize, 8_000] {
        let pos = uniform_box(&mut rng, n, &Aabb::unit());
        let mass = vec![1.0 / n as f64; n];
        let counter = FlopCounter::new();
        let res = calc.compute(
            Aabb::unit(),
            &pos,
            &mass,
            &TreecodeOptions::default(),
            &counter,
            false,
        );
        per_particle.push((n as f64, res.stats.interactions() as f64 / n as f64));
    }
    // Fit ipp = a + b ln N, extrapolate to 322M.
    let (n1, i1) = per_particle[0];
    let (n2, i2) = per_particle[1];
    let b = (i2 - i1) / (n2.ln() - n1.ln());
    let a = i1 - b * n1.ln();
    let n322: f64 = 322e6;
    let ipp = a + b * n322.ln();
    let advantage = n322 / ipp;
    assert!(
        (2e4..2e6).contains(&advantage),
        "advantage {advantage:.1e} should be ~1e5 as the paper claims"
    );
}

/// The trace ledger's Loki clock and the machine model's Loki spec hold
/// the same 74.3 Mflops and network: each writes them out, so pin one to
/// the other.
#[test]
fn paper_loki_clock_matches_the_loki_spec() {
    let clock = hot_trace::ModelClock::paper_loki();
    assert_eq!(clock.mflops_per_proc, LOKI.nbody_mflops_per_proc);
    assert_eq!(clock.network, LOKI.network);
}
