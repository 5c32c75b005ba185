//! Library of March algorithms used by the paper and its baseline.
//!
//! * [`march_c_minus`] — the classical 10n March C− \[12\], the core of
//!   both schemes.
//! * [`march_cw`] — March C− extended with ⌈log2 c⌉ binary data
//!   backgrounds \[13\], the algorithm the proposed scheme runs.
//! * [`diag_rs_march_m1`] / [`diag_rs_march_base`] — the DiagRSMarch
//!   structure of the baseline \[7,8\], split into the repeated `M1`
//!   element group (17 operations per address and per bit, iterated `k`
//!   times) and the remaining elements (9 operations per address and per
//!   bit), matching the operation counts of Eq. (1).
//! * [`with_nwrtm`] — merges NWRTM No-Write-Recovery cycles into a March
//!   test so data-retention faults are detected without any pause.
//! * [`with_retention_pauses`] — the classical pause-based DRF extension
//!   used by the baseline comparison.
//!
//! ## Note on the NWRTM merge cost
//!
//! The paper charges the NWRTM merge at 2 extra operations per address
//! (`Nw0`/`Nw1`). A behaviourally verifiable merge also needs the two
//! verifying reads, so [`with_nwrtm`] adds 4 operations per address
//! (2 NWRC writes + 2 reads, reusing the trailing `⇕(r0)` of March C−).
//! The analytic time model (in the `esram-diag` crate) uses the paper's
//! value of 2; the difference is 2·n·t ≈ 10 µs for the benchmark memory,
//! negligible against both the total test time and the 200 ms pause the
//! technique replaces. This substitution is recorded in `DESIGN.md`.

use crate::background::DataBackground;
use crate::ops::{AddressOrder, MarchElement, MarchOp, MarchTest};
use crate::schedule::{MarchSchedule, SchedulePhase};

/// MATS+ (5n): `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)`.
///
/// Included as a light-weight comparison point; it detects stuck-at and
/// address-decoder faults but misses many coupling faults.
pub fn mats_plus() -> MarchTest {
    MarchTest::new(
        "MATS+",
        vec![
            MarchElement::labelled("M0", AddressOrder::Either, vec![MarchOp::Write(false)]),
            MarchElement::labelled(
                "M1",
                AddressOrder::Ascending,
                vec![MarchOp::Read(false), MarchOp::Write(true)],
            ),
            MarchElement::labelled(
                "M2",
                AddressOrder::Descending,
                vec![MarchOp::Read(true), MarchOp::Write(false)],
            ),
        ],
    )
}

/// March C− (10n): `⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)` \[12\].
pub fn march_c_minus() -> MarchTest {
    MarchTest::new(
        "March C-",
        vec![
            MarchElement::labelled("M0", AddressOrder::Either, vec![MarchOp::Write(false)]),
            MarchElement::labelled(
                "M1",
                AddressOrder::Ascending,
                vec![MarchOp::Read(false), MarchOp::Write(true)],
            ),
            MarchElement::labelled(
                "M2",
                AddressOrder::Ascending,
                vec![MarchOp::Read(true), MarchOp::Write(false)],
            ),
            MarchElement::labelled(
                "M3",
                AddressOrder::Descending,
                vec![MarchOp::Read(false), MarchOp::Write(true)],
            ),
            MarchElement::labelled(
                "M4",
                AddressOrder::Descending,
                vec![MarchOp::Read(true), MarchOp::Write(false)],
            ),
            MarchElement::labelled("M5", AddressOrder::Either, vec![MarchOp::Read(false)]),
        ],
    )
}

/// The intra-word element group March CW repeats under each additional
/// data background: `⇕(w0); ⇕(r0,w1); ⇕(r1,w0)` (3 writes + 2 reads per
/// address, matching the `3n + 2n` read/write split of Eq. (2)).
pub fn march_cw_intra_word_elements() -> Vec<MarchElement> {
    vec![
        MarchElement::labelled("Mbg0", AddressOrder::Either, vec![MarchOp::Write(false)]),
        MarchElement::labelled(
            "Mbg1",
            AddressOrder::Either,
            vec![MarchOp::Read(false), MarchOp::Write(true)],
        ),
        MarchElement::labelled(
            "Mbg2",
            AddressOrder::Either,
            vec![MarchOp::Read(true), MarchOp::Write(false)],
        ),
    ]
}

/// March CW for a word width of `width` bits: March C− under the solid
/// background followed by the intra-word element group under each of the
/// ⌈log2 c⌉ binary backgrounds \[13\].
pub fn march_cw(width: usize) -> MarchSchedule {
    let mut phases = vec![SchedulePhase::new(DataBackground::Solid, march_c_minus())];
    for background in DataBackground::march_cw_set(width) {
        phases.push(SchedulePhase::new(
            background,
            MarchTest::new(
                format!("March CW intra-word ({background})"),
                march_cw_intra_word_elements(),
            ),
        ));
    }
    MarchSchedule::new("March CW", phases)
}

/// The `M1` element group of DiagRSMarch \[7,8\]: 17 operations per address.
///
/// With the bi-directional serial interface every operation is applied
/// bit-serially, so the group costs `17·n·c` cycles per iteration; the
/// baseline repeats it `k` times because each iteration can locate at
/// most one fault per shift direction.
pub fn diag_rs_march_m1() -> MarchTest {
    MarchTest::new(
        "DiagRSMarch M1",
        vec![
            MarchElement::labelled("M1a", AddressOrder::Either, vec![MarchOp::Write(false)]),
            MarchElement::labelled(
                "M1b",
                AddressOrder::Ascending,
                vec![
                    MarchOp::Read(false),
                    MarchOp::Write(true),
                    MarchOp::Read(true),
                    MarchOp::Write(false),
                ],
            ),
            MarchElement::labelled(
                "M1c",
                AddressOrder::Descending,
                vec![
                    MarchOp::Read(false),
                    MarchOp::Write(true),
                    MarchOp::Read(true),
                    MarchOp::Write(false),
                ],
            ),
            MarchElement::labelled(
                "M1d",
                AddressOrder::Ascending,
                vec![
                    MarchOp::Read(false),
                    MarchOp::Write(true),
                    MarchOp::Read(true),
                    MarchOp::Write(false),
                ],
            ),
            MarchElement::labelled(
                "M1e",
                AddressOrder::Descending,
                vec![
                    MarchOp::Read(false),
                    MarchOp::Write(true),
                    MarchOp::Read(true),
                    MarchOp::Write(false),
                ],
            ),
        ],
    )
}

/// The non-iterated remainder of DiagRSMarch \[7,8\]: 9 operations per
/// address (left-shift and checkerboard style elements), matching the
/// `9·n·c` term of Eq. (1).
pub fn diag_rs_march_base() -> MarchTest {
    MarchTest::new(
        "DiagRSMarch base",
        vec![
            MarchElement::labelled("M2a", AddressOrder::Either, vec![MarchOp::Write(false)]),
            MarchElement::labelled(
                "M2b",
                AddressOrder::Ascending,
                vec![MarchOp::Read(false), MarchOp::Write(true), MarchOp::Read(true)],
            ),
            MarchElement::labelled(
                "M2c",
                AddressOrder::Descending,
                vec![MarchOp::Read(true), MarchOp::Write(false), MarchOp::Read(false)],
            ),
            MarchElement::labelled(
                "M2d",
                AddressOrder::Either,
                vec![MarchOp::Read(false), MarchOp::Write(false)],
            ),
        ],
    )
}

/// Merges NWRTM No-Write-Recovery cycles into `test` so that
/// data-retention faults on both storage nodes become observable at
/// speed, without any retention pause.
///
/// The trailing `⇕(r0)` element (if present) is replaced by the sequence
/// `⇕(r0,Nw1); ⇕(r1,Nw0); ⇕(r0)`; otherwise the sequence is appended.
/// See the module-level note about the 4-operation cost of this merge
/// versus the paper's 2-operation accounting.
pub fn with_nwrtm(test: &MarchTest) -> MarchTest {
    let name = format!("{} + NWRTM", test.name());
    let mut elements: Vec<MarchElement> = test.elements().to_vec();
    // Drop a trailing pure-read-0 element so it can be fused with the
    // NWRC sequence (March C− and March CW both end with ⇕(r0)).
    let fuse = matches!(elements.last(), Some(last) if last.ops == vec![MarchOp::Read(false)]);
    if fuse {
        elements.pop();
    }
    elements.push(MarchElement::labelled(
        "Nw1",
        AddressOrder::Either,
        vec![MarchOp::Read(false), MarchOp::NwrcWrite(true)],
    ));
    elements.push(MarchElement::labelled(
        "Nw0",
        AddressOrder::Either,
        vec![MarchOp::Read(true), MarchOp::NwrcWrite(false)],
    ));
    elements.push(MarchElement::labelled(
        "Nwv",
        AddressOrder::Either,
        vec![MarchOp::Read(false)],
    ));
    MarchTest::new(name, elements)
}

/// Extends `test` with the classical pause-based data-retention check:
/// `⇕(w0); del; ⇕(r0,w1); del; ⇕(r1)` with a pause of `pause_ms`
/// milliseconds per retention state (the paper uses 100 ms, 200 ms in
/// total), as the baseline architecture of \[7,8\] would have to do to
/// reach the same DRF coverage.
pub fn with_retention_pauses(test: &MarchTest, pause_ms: u32) -> MarchTest {
    let name = format!("{} + retention pauses", test.name());
    let mut elements: Vec<MarchElement> = test.elements().to_vec();
    elements.push(MarchElement::labelled(
        "DR0w",
        AddressOrder::Either,
        vec![MarchOp::Write(false)],
    ));
    elements.push(MarchElement::labelled(
        "DR0",
        AddressOrder::Either,
        vec![MarchOp::Pause(pause_ms)],
    ));
    elements.push(MarchElement::labelled(
        "DR0r",
        AddressOrder::Either,
        vec![MarchOp::Read(false), MarchOp::Write(true)],
    ));
    elements.push(MarchElement::labelled(
        "DR1",
        AddressOrder::Either,
        vec![MarchOp::Pause(pause_ms)],
    ));
    elements.push(MarchElement::labelled(
        "DR1r",
        AddressOrder::Either,
        vec![MarchOp::Read(true)],
    ));
    MarchTest::new(name, elements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mats_plus_is_5n() {
        assert_eq!(mats_plus().complexity_per_address(), 5);
        assert_eq!(mats_plus().element_count(), 3);
    }

    #[test]
    fn march_c_minus_is_10n_with_5_reads_and_5_writes() {
        let test = march_c_minus();
        assert_eq!(test.complexity_per_address(), 10);
        assert_eq!(test.read_count(1), 5);
        assert_eq!(test.write_count(1), 5);
        assert_eq!(test.element_count(), 6);
        assert!(!test.has_nwrc());
        assert!(!test.has_pause());
    }

    #[test]
    fn march_cw_has_one_solid_phase_plus_log2c_background_phases() {
        let schedule = march_cw(100);
        assert_eq!(schedule.phases().len(), 1 + 7);
        assert_eq!(schedule.phases()[0].background, DataBackground::Solid);
        assert_eq!(schedule.phases()[0].test.complexity_per_address(), 10);
        for phase in &schedule.phases()[1..] {
            assert_eq!(phase.test.complexity_per_address(), 5);
            assert_eq!(phase.test.read_count(1), 2);
            assert_eq!(phase.test.write_count(1), 3);
        }
    }

    #[test]
    fn march_cw_narrow_word_still_has_at_least_one_background_phase() {
        assert_eq!(march_cw(1).phases().len(), 2);
        assert_eq!(march_cw(4).phases().len(), 1 + 2);
    }

    #[test]
    fn diag_rs_march_m1_is_17_ops_per_address() {
        assert_eq!(diag_rs_march_m1().complexity_per_address(), 17);
    }

    #[test]
    fn diag_rs_march_base_is_9_ops_per_address() {
        assert_eq!(diag_rs_march_base().complexity_per_address(), 9);
    }

    #[test]
    fn with_nwrtm_adds_two_nwrc_writes_and_two_reads() {
        let base = march_c_minus();
        let nwrtm = with_nwrtm(&base);
        assert!(nwrtm.has_nwrc());
        assert!(!nwrtm.has_pause());
        assert_eq!(nwrtm.complexity_per_address(), base.complexity_per_address() + 4);
        // The two NWRC polarities are both present.
        let ops: Vec<MarchOp> = nwrtm.elements().iter().flat_map(|e| e.ops.clone()).collect();
        assert!(ops.contains(&MarchOp::NwrcWrite(true)));
        assert!(ops.contains(&MarchOp::NwrcWrite(false)));
        assert_eq!(nwrtm.name(), "March C- + NWRTM");
    }

    #[test]
    fn with_nwrtm_appends_when_there_is_no_trailing_read_element() {
        let base = mats_plus();
        let nwrtm = with_nwrtm(&base);
        assert_eq!(nwrtm.complexity_per_address(), base.complexity_per_address() + 5);
        assert_eq!(nwrtm.element_count(), base.element_count() + 3);
    }

    #[test]
    fn with_retention_pauses_adds_200ms_for_the_paper_defaults() {
        let test = with_retention_pauses(&march_c_minus(), 100);
        assert!(test.has_pause());
        assert_eq!(test.pause_ms(), 200);
        assert_eq!(test.complexity_per_address(), 10 + 4);
    }

    #[test]
    fn algorithm_names_are_descriptive() {
        assert_eq!(march_c_minus().name(), "March C-");
        assert_eq!(march_cw(8).name(), "March CW");
        assert!(with_retention_pauses(&march_c_minus(), 100)
            .name()
            .contains("retention"));
    }
}
