//! Golden campaign outcomes: the four named policies over three pinned
//! specs, each outcome frozen as a 64-bit FNV-1a digest of its `Debug`
//! serialisation. The digests were captured from the closed-enum campaign
//! engine the `CapPolicy` trait replaced, so they pin the trait path to
//! that engine byte-for-byte — demands, admissions, spans, peak, integral,
//! distributions and TCO. Any drift means the DES, the demand arithmetic
//! or a policy changed semantics and needs a deliberate re-bless.

use vpp_powercap::policy::{ClassAware, FixedCap, SweetSpot, Uncapped};
use vpp_powercap::{campaign, CampaignSpec, CapPolicy};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn specs() -> [(&'static str, CampaignSpec); 3] {
    [
        ("180 jobs, seed 7", CampaignSpec::new(180, 7)),
        (
            "3 partitions, 120 jobs, seed 5",
            CampaignSpec {
                partitions: 3,
                ..CampaignSpec::new(120, 5)
            },
        ),
        ("baseline_spec", campaign::baseline_spec()),
    ]
}

fn policies() -> [(&'static str, &'static dyn CapPolicy); 4] {
    [
        ("uncapped", &Uncapped),
        ("fixed_220w", &FixedCap(220.0)),
        ("class_aware", &ClassAware),
        ("sweet_spot", &SweetSpot),
    ]
}

/// `GOLDEN[spec][policy]`, in the order of [`specs`] and [`policies`].
const GOLDEN: [[u64; 4]; 3] = [
    [
        0xb775_3a95_5f7b_bbbf,
        0x309f_8abd_321c_f91f,
        0xd97a_0f19_34c1_400b,
        0x6860_f13e_0760_c01a,
    ],
    [
        0xaddb_e065_26a7_30e4,
        0xdd14_f03f_57a7_3708,
        0xe980_4f61_974e_64f6,
        0x6a03_2f26_5064_e5e4,
    ],
    [
        0x0503_2ab7_0503_b0f5,
        0x1737_8e4e_a67f_4365,
        0xe7f5_1d6d_d8b2_c112,
        0x6424_13e5_a682_1acb,
    ],
];

#[test]
fn campaign_outcomes_match_their_frozen_digests() {
    let mut drift = Vec::new();
    for ((spec_name, spec), golden) in specs().iter().zip(GOLDEN) {
        for ((name, policy), want) in policies().into_iter().zip(golden) {
            let out = campaign::run(spec, policy, spec.partitions);
            let got = fnv1a(format!("{out:?}").as_bytes());
            if got != want {
                drift.push(format!("{spec_name} / {name}: {got:#018x} != golden {want:#018x}"));
            }
        }
    }
    assert!(drift.is_empty(), "campaign outcomes drifted:\n{}", drift.join("\n"));
}
