//! Golden site-budget outcomes: `contention_spec()` (the `repro
//! campaign_contention` scenario: 1200 jobs over 8 partitions under 60 %
//! of the summed envelope) × five policies, through the coupled
//! global-backfill engine. Each outcome is frozen as a 64-bit FNV-1a
//! digest of its `Debug` serialisation with `merged.mean_power_w` zeroed,
//! plus `mean_power_w` itself to 1e-12 relative. The split exists because
//! the mean is a power-time integral whose summation order is an engine
//! detail: reordering the committed-watts sums may move its last bits,
//! while spans, placement, backfill, peak, energy, TCO and slowdowns must
//! not move at all.

use vpp_powercap::policy::{ClassAware, FixedCap, SweetSpot, TcoAware, Uncapped};
use vpp_powercap::{campaign, CapPolicy};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(policy, digest with mean_power_w zeroed, mean_power_w)`.
const GOLDEN: [(&str, &dyn CapPolicy, u64, f64); 5] = [
    (
        "uncapped",
        &Uncapped,
        0xdab1_15ed_91c5_649c,
        188_024.768_988_562_75,
    ),
    (
        "fixed_220w",
        &FixedCap(220.0),
        0x72fe_c887_38bc_e6b1,
        185_232.798_867_063_63,
    ),
    (
        "class_aware",
        &ClassAware,
        0xfa9c_f30c_a5ea_5e8c,
        186_481.965_000_170_1,
    ),
    (
        "sweet_spot",
        &SweetSpot,
        0x5b16_05c7_188b_57e9,
        184_595.108_551_855_78,
    ),
    (
        "tco_aware",
        &TcoAware::DEFAULT,
        0x5b85_52c4_9293_d80b,
        186_086.480_782_490_28,
    ),
];

#[test]
fn contention_outcomes_match_their_frozen_digests() {
    let spec = campaign::contention_spec();
    let mut drift = Vec::new();
    for (name, policy, want_digest, want_mean) in GOLDEN {
        let mut out = campaign::run(&spec, policy, spec.partitions);
        let mean = out.merged.mean_power_w;
        out.merged.mean_power_w = 0.0;
        let digest = fnv1a(format!("{out:?}").as_bytes());
        if digest != want_digest {
            drift.push(format!(
                "{name}: digest {digest:#018x} != golden {want_digest:#018x}"
            ));
        }
        if (mean - want_mean).abs() > 1e-12 * want_mean.abs() {
            drift.push(format!(
                "{name}: mean_power_w {mean:.17e} != golden {want_mean:.17e}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "site outcomes drifted:\n{}",
        drift.join("\n")
    );
}
