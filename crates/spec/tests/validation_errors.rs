//! One test per [`SpecErrorKind`] variant: every way a spec can be
//! rejected produces the right kind, anchored at a real span, and a
//! `Display` line the CI negative rows can grep (`line N, column M`).

use esram_spec::{ScenarioSpec, SpecError, SpecErrorKind, MAX_CELLS, MAX_NESTING};

/// A minimal valid spec the mutations below build on.
const VALID: &str = concat!(
    "[scenario]\n",
    "name = \"valid\"\n",
    "\n",
    "[[memory]]\n",
    "words = 64\n",
    "width = 8\n",
);

fn reject(source: &str) -> SpecError {
    let error = ScenarioSpec::parse(source).expect_err("spec must be rejected");
    // Every rejection must carry a grep-able span in its message.
    let message = error.to_string();
    assert!(
        message.contains("line ") && message.contains("column "),
        "error message lacks a span: {message}"
    );
    error
}

#[test]
fn the_base_spec_is_valid() {
    ScenarioSpec::parse(VALID).expect("base spec parses");
}

// ---- TOML syntax ---------------------------------------------------

#[test]
fn expected_key() {
    assert!(matches!(
        reject("[scenario]\n= 5\n").kind,
        SpecErrorKind::ExpectedKey
    ));
}

#[test]
fn expected_equals() {
    assert!(matches!(
        reject("[scenario]\nname \"x\"\n").kind,
        SpecErrorKind::ExpectedEquals
    ));
}

#[test]
fn expected_value() {
    assert!(matches!(
        reject("[scenario]\nname =\n").kind,
        SpecErrorKind::ExpectedValue
    ));
}

#[test]
fn unterminated_string() {
    assert!(matches!(
        reject("[scenario]\nname = \"open\n").kind,
        SpecErrorKind::UnterminatedString
    ));
}

#[test]
fn unterminated_header() {
    assert!(matches!(
        reject("[scenario\nname = \"x\"\n").kind,
        SpecErrorKind::UnterminatedHeader
    ));
}

#[test]
fn unterminated_array() {
    let source = format!("{VALID}[sweep]\nseeds = [1, 2\n");
    assert!(matches!(reject(&source).kind, SpecErrorKind::UnterminatedArray));
}

#[test]
fn invalid_escape() {
    assert!(matches!(
        reject("[scenario]\nname = \"a\\qb\"\n").kind,
        SpecErrorKind::InvalidEscape
    ));
}

#[test]
fn invalid_value() {
    let error = reject("[scenario]\nseed = 2005-01-01\n");
    assert!(matches!(error.kind, SpecErrorKind::InvalidValue(token) if token == "2005-01-01"));
}

#[test]
fn trailing_garbage() {
    let error = reject(&format!("{VALID}[defects]\nrate = 0.01 oops\n"));
    assert!(matches!(error.kind, SpecErrorKind::TrailingGarbage));
    assert_eq!((error.span.line, error.span.col), (8, 13));
}

#[test]
fn duplicate_key() {
    let source = "[scenario]\nname = \"a\"\nname = \"b\"\n";
    assert!(matches!(reject(source).kind, SpecErrorKind::DuplicateKey(key) if key == "name"));
}

#[test]
fn duplicate_section() {
    let source = format!("{VALID}[defects]\n[defects]\n");
    assert!(matches!(reject(&source).kind, SpecErrorKind::DuplicateSection(name) if name == "defects"));
}

#[test]
fn nesting_too_deep() {
    let nested = |depth: usize| {
        format!(
            "{VALID}\n[sweep]\nseeds = {}{}\n",
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    // At the cap the arrays parse and the schema rejects their type.
    assert!(matches!(
        reject(&nested(MAX_NESTING)).kind,
        SpecErrorKind::WrongType { .. }
    ));
    let error = reject(&nested(MAX_NESTING + 1));
    assert!(matches!(error.kind, SpecErrorKind::NestingTooDeep));
    assert_eq!((error.span.line, error.span.col), (9, 9 + MAX_NESTING));
}

// ---- schema validation ---------------------------------------------

#[test]
fn root_key() {
    let source = format!("stray = 1\n{VALID}");
    assert!(matches!(reject(&source).kind, SpecErrorKind::RootKey(key) if key == "stray"));
}

#[test]
fn unknown_section_table_and_array() {
    let table = format!("{VALID}[bogus]\n");
    assert!(matches!(reject(&table).kind, SpecErrorKind::UnknownSection(name) if name == "bogus"));
    let array = format!("{VALID}[[bogus]]\n");
    assert!(matches!(reject(&array).kind, SpecErrorKind::UnknownSection(name) if name == "bogus"));
}

#[test]
fn unknown_key() {
    let source = format!("{VALID}[defects]\ndensity = 0.5\n");
    assert!(matches!(reject(&source).kind, SpecErrorKind::UnknownKey(key) if key == "density"));
}

#[test]
fn missing_section() {
    let source = "[[memory]]\nwords = 64\nwidth = 8\n";
    assert!(matches!(
        reject(source).kind,
        SpecErrorKind::MissingSection("scenario")
    ));
}

#[test]
fn missing_key() {
    assert!(matches!(
        reject("[scenario]\nseed = 1\n\n[[memory]]\nwords = 64\nwidth = 8\n").kind,
        SpecErrorKind::MissingKey("name")
    ));
    assert!(matches!(
        reject("[scenario]\nname = \"x\"\n\n[[memory]]\nwidth = 8\n").kind,
        SpecErrorKind::MissingKey("words")
    ));
}

#[test]
fn wrong_type() {
    let error = reject("[scenario]\nname = 5\n\n[[memory]]\nwords = 64\nwidth = 8\n");
    assert!(matches!(
        error.kind,
        SpecErrorKind::WrongType {
            key,
            expected: "string",
            found: "integer",
        } if key == "name"
    ));
}

#[test]
fn out_of_range() {
    let negative = reject("[scenario]\nname = \"x\"\nseed = -1\n\n[[memory]]\nwords = 64\nwidth = 8\n");
    assert!(matches!(negative.kind, SpecErrorKind::OutOfRange { key, .. } if key == "seed"));
    let zero_count = reject("[scenario]\nname = \"x\"\n\n[[memory]]\ncount = 0\nwords = 64\nwidth = 8\n");
    assert!(matches!(zero_count.kind, SpecErrorKind::OutOfRange { key, .. } if key == "count"));
    let zero_cap = reject(&format!(
        "{VALID}[scheme]\nkind = \"baseline\"\nmax_iterations = 0\n"
    ));
    assert!(matches!(zero_cap.kind, SpecErrorKind::OutOfRange { key, .. } if key == "max_iterations"));
    let big_pause = reject(&format!(
        "{VALID}[scheme]\ndrf = \"pause\"\npause_ms = 5000000000\n"
    ));
    assert!(matches!(big_pause.kind, SpecErrorKind::OutOfRange { key, .. } if key == "pause_ms"));
}

#[test]
fn specs_over_the_cell_budget_are_rejected_at_the_key_that_overflows() {
    // One job: the second group's count pushes the total past the
    // budget, so the error anchors there (line 9).
    let huge_count = reject(concat!(
        "[scenario]\nname = \"x\"\n\n",
        "[[memory]]\nwords = 64\nwidth = 8\n\n",
        "[[memory]]\ncount = 100000000000\nwords = 64\nwidth = 8\n",
    ));
    assert!(matches!(huge_count.kind, SpecErrorKind::OutOfRange { key, .. } if key == "count"));
    assert_eq!(huge_count.span.line, 9);
    // No count: the single memory's words carry the blame.
    let huge_words = reject("[scenario]\nname = \"x\"\n\n[[memory]]\nwords = 1099511627776\nwidth = 8\n");
    assert!(matches!(huge_words.kind, SpecErrorKind::OutOfRange { key, .. } if key == "words"));
    // Each job fits, but the sweep's jobs together do not.
    let cells_per_job = MAX_CELLS / 16;
    let fits = format!(
        "[scenario]\nname = \"x\"\n\n[[memory]]\ncount = 16\nwords = {}\nwidth = 128\n",
        cells_per_job / 16 / 128
    );
    ScenarioSpec::parse(&format!("{fits}\n[sweep]\nseeds = [{}]\n", ["1"; 16].join(", ")))
        .expect("exactly at the budget");
    let over = reject(&format!(
        "{fits}\n[sweep]\ndefect_rates = [0.0, 0.1]\nseeds = [{}]\n",
        ["1"; 9].join(", ")
    ));
    assert!(matches!(over.kind, SpecErrorKind::OutOfRange { key, .. } if key == "seeds"));
    let over_rates = reject(&format!(
        "{fits}\n[sweep]\ndefect_rates = [{}]\n",
        ["0.0"; 17].join(", ")
    ));
    assert!(matches!(over_rates.kind, SpecErrorKind::OutOfRange { key, .. } if key == "defect_rates"));
}

#[test]
fn invalid_geometry() {
    let error = reject("[scenario]\nname = \"x\"\n\n[[memory]]\nwords = 512\nwidth = 200\n");
    assert!(matches!(error.kind, SpecErrorKind::InvalidGeometry(_)));
    assert_eq!(error.span.line, 5, "geometry errors anchor at the words key");
}

#[test]
fn unknown_scheme() {
    let error = reject(&format!("{VALID}[scheme]\nkind = \"turbo\"\n"));
    assert!(matches!(error.kind, SpecErrorKind::UnknownScheme(kind) if kind == "turbo"));
}

#[test]
fn unknown_drf() {
    let error = reject(&format!("{VALID}[scheme]\ndrf = \"magic\"\n"));
    assert!(matches!(error.kind, SpecErrorKind::UnknownDrf(mode) if mode == "magic"));
}

#[test]
fn missing_pause() {
    let error = reject(&format!("{VALID}[scheme]\ndrf = \"pause\"\n"));
    assert!(matches!(error.kind, SpecErrorKind::MissingPause));
}

#[test]
fn inapplicable_key() {
    // An iteration cap makes no sense for the fast scheme.
    let cap = reject(&format!("{VALID}[scheme]\nmax_iterations = 10\n"));
    assert!(matches!(cap.kind, SpecErrorKind::InapplicableKey { key, .. } if key == "max_iterations"));
    // A pause length without pause-based DRF testing.
    let pause = reject(&format!("{VALID}[scheme]\ndrf = \"none\"\npause_ms = 100\n"));
    assert!(matches!(pause.kind, SpecErrorKind::InapplicableKey { key, .. } if key == "pause_ms"));
    // NWRTM is the fast scheme's test mode.
    let nwrtm = reject(&format!(
        "{VALID}[scheme]\nkind = \"baseline\"\ndrf = \"nwrtm\"\n"
    ));
    assert!(matches!(nwrtm.kind, SpecErrorKind::InapplicableKey { key, .. } if key == "drf"));
}

#[test]
fn unknown_kernel() {
    let error = reject(&format!("{VALID}[execution]\nkernel = \"gpu\"\n"));
    assert!(matches!(error.kind, SpecErrorKind::UnknownKernel(name) if name == "gpu"));
}

#[test]
fn unknown_faultsim_kernel() {
    // The same malformed value the CI env-guard rejects ambiently.
    let error = reject(&format!("{VALID}[execution]\nfaultsim_kernel = \"lnaes\"\n"));
    assert!(matches!(error.kind, SpecErrorKind::UnknownFaultSimKernel(name) if name == "lnaes"));
}

#[test]
fn unknown_fault_class() {
    let error = reject(&format!(
        "{VALID}[defects]\nclasses = [\"stuck-at\", \"bit-rot\"]\n"
    ));
    assert!(matches!(error.kind, SpecErrorKind::UnknownFaultClass(name) if name == "bit-rot"));
}

#[test]
fn empty_classes() {
    let error = reject(&format!("{VALID}[defects]\nclasses = []\n"));
    assert!(matches!(error.kind, SpecErrorKind::EmptyClasses));
}

#[test]
fn invalid_defect_rate() {
    let direct = reject(&format!("{VALID}[defects]\nrate = 1.5\n"));
    assert!(matches!(direct.kind, SpecErrorKind::InvalidDefectRate(rate) if rate == 1.5));
    let swept = reject(&format!("{VALID}[sweep]\ndefect_rates = [0.01, -0.5]\n"));
    assert!(matches!(swept.kind, SpecErrorKind::InvalidDefectRate(rate) if rate == -0.5));
}

#[test]
fn invalid_clock() {
    let zero = reject(&format!("{VALID}[scheme]\nclock_ns = 0.0\n"));
    assert!(matches!(zero.kind, SpecErrorKind::InvalidClock(clock) if clock == 0.0));
    let negative = reject(&format!("{VALID}[scheme]\nclock_ns = -10.0\n"));
    assert!(matches!(negative.kind, SpecErrorKind::InvalidClock(_)));
}

#[test]
fn empty_memories() {
    assert!(matches!(
        reject("[scenario]\nname = \"x\"\n").kind,
        SpecErrorKind::EmptyMemories
    ));
}

#[test]
fn empty_sweep() {
    let rates = reject(&format!("{VALID}[sweep]\ndefect_rates = []\n"));
    assert!(matches!(rates.kind, SpecErrorKind::EmptySweep("defect_rates")));
    let seeds = reject(&format!("{VALID}[sweep]\nseeds = []\n"));
    assert!(matches!(seeds.kind, SpecErrorKind::EmptySweep("seeds")));
}

#[test]
fn invalid_name() {
    let spaced = reject("[scenario]\nname = \"has space\"\n\n[[memory]]\nwords = 64\nwidth = 8\n");
    assert!(matches!(spaced.kind, SpecErrorKind::InvalidName(name) if name == "has space"));
    let empty_dir = reject(&format!("{VALID}[report]\ndir = \"\"\n"));
    assert!(matches!(empty_dir.kind, SpecErrorKind::InvalidName(name) if name.is_empty()));
}
