//! Behaviour of the shared BISD controller building blocks: the address
//! trigger's wrap-around, the background generator's width consistency
//! (the invariant that makes MSB-first delivery correct), the memory
//! size table and the comparator array.

use bisd::{AddressTrigger, ComparatorArray, DataBackgroundGenerator, DrfMode, FastScheme, MemorySizeTable};
use march::DataBackground;
use serial::{SerialToParallelConverter, ShiftOrder};
use sram_model::{Address, DataWord, MemConfig, MemoryId};
use testutil::small_geometry_grid;

/// The trigger sweeps exactly the largest memory's address space, in
/// both orders, and local generators wrap the global count.
#[test]
fn address_trigger_sweeps_and_wraps() {
    let trigger = AddressTrigger::new(12);
    let ascending: Vec<u64> = trigger.ascending().map(|a| a.index()).collect();
    assert_eq!(ascending, (0..12).collect::<Vec<_>>());
    let descending: Vec<u64> = trigger.descending().map(|a| a.index()).collect();
    assert_eq!(descending, (0..12).rev().collect::<Vec<_>>());
    assert_eq!(trigger.max_words(), 12);

    // An 8-word memory sees global address 11 as local 3; a 12-word
    // memory sees it unchanged.
    assert_eq!(trigger.local_address(Address::new(11), 8), Address::new(3));
    assert_eq!(trigger.local_address(Address::new(11), 12), Address::new(11));
    // Wrapping covers every local address exactly max_words/words times
    // when sizes divide evenly.
    let mut counts = [0usize; 4];
    for global in trigger.ascending() {
        counts[trigger.local_address(global, 4).index() as usize] += 1;
    }
    assert_eq!(counts, [3, 3, 3, 3]);
}

/// The invariant that makes one serial broadcast correct for the whole
/// population: what an SPC of width `w` retains after MSB-first delivery
/// of the generator's widest pattern is exactly the generator's
/// `pattern_for_width(w)` expectation.
#[test]
fn generator_expectation_matches_spc_reception_for_every_width() {
    for config in small_geometry_grid() {
        let widest = 20;
        let generator = DataBackgroundGenerator::new(widest);
        for background in [
            DataBackground::Solid,
            DataBackground::ColumnStripe,
            DataBackground::Binary(2),
        ] {
            for value in [false, true] {
                let wide = generator.pattern(background, value);
                assert_eq!(wide.width(), widest);
                let width = config.width();
                let mut spc = SerialToParallelConverter::new(width);
                spc.deliver(&wide, ShiftOrder::MsbFirst);
                assert_eq!(
                    spc.parallel_out(),
                    generator.pattern_for_width(background, value, width),
                    "{background:?}/{value} at width {width}"
                );
            }
        }
    }
}

/// The size table reports the extreme geometries the run length depends
/// on, even when n_max and c_max come from different memories.
#[test]
fn size_table_tracks_extremes_across_different_memories() {
    let table: MemorySizeTable = [
        (MemoryId::new(0), MemConfig::new(64, 4).unwrap()),
        (MemoryId::new(1), MemConfig::new(16, 20).unwrap()),
        (MemoryId::new(2), MemConfig::new(32, 8).unwrap()),
    ]
    .into_iter()
    .collect();
    assert_eq!(table.len(), 3);
    assert_eq!(table.max_words(), 64);
    assert_eq!(table.max_width(), 20);
    assert_eq!(
        table.config(MemoryId::new(1)),
        Some(MemConfig::new(16, 20).unwrap())
    );
    assert_eq!(table.config(MemoryId::new(9)), None);
    assert!(!table.is_empty());
}

/// The comparator array records exactly the mismatching bits, keyed by
/// memory, and stays silent on matches.
#[test]
fn comparator_array_records_only_mismatches() {
    let mut comparator = ComparatorArray::new([MemoryId::new(0), MemoryId::new(1)]);
    let expected = DataWord::from_u64(0b1010, 4);
    let matching = expected.clone();
    let off_by_two = DataWord::from_u64(0b0011, 4);

    assert!(
        comparator
            .compare(0, Address::new(3), &expected, &matching)
            .is_empty(),
        "a matching response records nothing"
    );

    let failing = comparator.compare(1, Address::new(5), &expected, &off_by_two);
    assert_eq!(failing, expected.mismatches(&off_by_two));
    let log = comparator.into_log();
    assert_eq!(log.len(), 1);
    let sites = log.sites();
    assert_eq!(sites.len(), 2, "two failing bits are two fault sites");
    assert!(sites.of(MemoryId::new(0)).is_empty());
    for (site, &bit) in sites.all().iter().zip(failing.iter()) {
        assert_eq!(
            (site.memory, site.address, site.bit),
            (MemoryId::new(1), Address::new(5), bit)
        );
    }
}

/// The scheme's programme reflects its DRF mode: NWRTM merges NWRC
/// cycles without pauses, the pause mode inserts pauses without NWRC,
/// and the plain mode has neither.
#[test]
fn fast_scheme_schedule_reflects_the_drf_mode() {
    let width = 16;
    let plain = FastScheme::new(10.0).with_drf_mode(DrfMode::None).schedule(width);
    assert!(!plain.has_nwrc());
    assert!(!plain.has_pause());

    let nwrtm = FastScheme::new(10.0).schedule(width);
    assert!(nwrtm.has_nwrc());
    assert!(!nwrtm.has_pause());
    assert_eq!(nwrtm.pause_ms(), 0);

    let paused = FastScheme::new(10.0)
        .with_drf_mode(DrfMode::RetentionPause(100))
        .schedule(width);
    assert!(!paused.has_nwrc());
    assert!(paused.has_pause());
    assert_eq!(paused.pause_ms(), 200);

    // All three share the March CW core: same phase structure ahead of
    // the final (DRF-bearing) phase.
    assert_eq!(plain.phases().len(), nwrtm.phases().len());
    assert_eq!(plain.phases().len(), paused.phases().len());
}
