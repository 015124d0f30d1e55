//! Cross-crate integration tests: the full paper pipeline at small
//! scale (generation → optimization/mapping → reasoning →
//! verification).

use boole::{BoolE, BooleParams, SaturateParams};
use boole_bench::{
    abc_counts, baseline_blocks, boole_counts, gamora_counts, prepare, verifier_blocks, Family,
    Prep,
};
use sca::{verify_multiplier, MulSpec, VerifyParams};

fn small_engine() -> BoolE {
    BoolE::new(BooleParams {
        saturate: SaturateParams::small(),
    })
}

#[test]
fn rq1_pre_mapping_boole_hits_upper_bound() {
    for (family, n) in [(Family::Csa, 3), (Family::Csa, 4), (Family::Booth, 4)] {
        let pre = prepare(family, n, Prep::None);
        let upper = abc_counts(&pre).npn;
        let result = small_engine().run(&pre);
        assert_eq!(
            result.exact_fa_count(),
            upper,
            "{} n={n}: BoolE must reach the pre-mapping upper bound",
            family.name()
        );
    }
}

#[test]
fn dch_multipliers_keep_their_full_adders() {
    // Optimized netlists are where the extraction fixpoint proposes
    // cycle-closing switches; refusing them must not cost FAs.
    let engine = BoolE::new(BooleParams::small().without_time_limit());
    for (family, floor) in [(Family::Csa, 16), (Family::Booth, 15)] {
        let result = engine.run(&prepare(family, 6, Prep::Dch));
        assert!(
            result.exact_fa_count() >= floor,
            "{} 6 dch: {} exact FAs, expected at least {floor}",
            family.name(),
            result.exact_fa_count()
        );
    }
}

#[test]
fn fig4_ordering_post_mapping() {
    // The paper's post-mapping ordering: BoolE >= ABC (NPN), and BoolE
    // strictly ahead of ABC on exact FAs.
    let mapped = prepare(Family::Csa, 4, Prep::Mapped);
    let abc = abc_counts(&mapped);
    let model = baselines::GamoraModel::default_trained();
    let gamora = gamora_counts(&mapped, &model);
    let result = small_engine().run(&mapped);
    let boole = boole_counts(&result);
    assert!(
        boole.exact >= abc.exact,
        "BoolE exact {} vs ABC exact {}",
        boole.exact,
        abc.exact
    );
    assert!(
        boole.npn >= gamora.npn,
        "BoolE NPN {} vs Gamora NPN {}",
        boole.npn,
        gamora.npn
    );
    // Reconstruction must preserve the function.
    assert!(aig::sim::random_equiv_check(
        &mapped,
        &result.reconstructed,
        8,
        0x1234
    ));
}

#[test]
fn table2_dch_verification_with_boole() {
    let n = 4;
    let opt = prepare(Family::Csa, n, Prep::Dch);
    let params = VerifyParams {
        max_terms: 100_000,
        ..VerifyParams::default()
    };

    // Baseline: blocks from cut enumeration on the optimized netlist.
    let base_report = baselines::detect_blocks_atree(&opt);
    let base_blocks = baseline_blocks(&base_report);
    let base = verify_multiplier(&opt, MulSpec::unsigned(n), &base_blocks, &params);

    // BoolE-assisted: verify the original netlist with BoolE's blocks
    // mapped back onto its signals.
    let result = small_engine().run(&opt);
    let blocks = verifier_blocks(&result, &opt);
    let be = verify_multiplier(&opt, MulSpec::unsigned(n), &blocks, &params);
    assert!(be.verified, "BoolE-assisted verification failed: {be:?}");
    assert!(
        blocks.fas.len() >= base_blocks.fas.len(),
        "BoolE must recover at least as many exact FAs as the baseline"
    );
    // At this tiny width the baseline does not blow up yet (the
    // paper's crossover is at 16 bit); both must verify without
    // hitting the budget. The max-poly-size advantage is demonstrated
    // by the `table2` harness at larger widths.
    assert!(base.verified || base.timed_out);
    assert!(!be.timed_out);
}

#[test]
fn booth_pipeline_verifies_signed() {
    let n = 4;
    let booth = prepare(Family::Booth, n, Prep::None);
    let result = small_engine().run(&booth);
    let blocks = verifier_blocks(&result, &booth);
    let outcome = verify_multiplier(
        &booth,
        MulSpec::signed(n),
        &blocks,
        &VerifyParams::default(),
    );
    assert!(outcome.verified, "{outcome:?}");
}

#[test]
fn aiger_roundtrip_through_pipeline() {
    // Netlists written to AIGER and read back behave identically in
    // the whole flow.
    let aig = prepare(Family::Csa, 3, Prep::Mapped);
    let text = aig::aiger::to_aag(&aig);
    let parsed = aig::aiger::from_aag(&text).expect("valid aiger");
    assert!(aig::sim::exhaustive_equiv_check(&aig, &parsed));
    let r1 = small_engine().run(&aig);
    let r2 = small_engine().run(&parsed);
    assert_eq!(r1.exact_fa_count(), r2.exact_fa_count());
}

#[test]
fn wallace_tree_recovery() {
    // BoolE also recovers FAs from a Wallace-tree topology (the exact
    // counts differ from the array but must be positive and the
    // reconstruction sound).
    let aig = aig::gen::wallace_multiplier(4);
    let result = small_engine().run(&aig);
    assert!(result.exact_fa_count() > 0);
    assert!(aig::sim::random_equiv_check(
        &aig,
        &result.reconstructed,
        8,
        0x77
    ));
}
