//! March test notation: operations, elements and complete tests.

use sram_model::Address;
use std::fmt;

/// One operation inside a March element.
///
/// Logical values refer to the active data background: `Write(false)`
/// writes the background pattern, `Write(true)` writes its inverse (for
/// the solid background these are the classical `w0` / `w1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MarchOp {
    /// Read expecting the background (`r0`) or inverted background (`r1`).
    Read(bool),
    /// Normal write of the background (`w0`) or inverted background (`w1`).
    Write(bool),
    /// No Write Recovery Cycle write (`Nw0` / `Nw1`), the NWRTM special
    /// write that exposes data-retention faults without a pause.
    NwrcWrite(bool),
    /// Retention pause of the given length in milliseconds (`del`),
    /// used by classical pause-based DRF tests.
    Pause(u32),
}

impl MarchOp {
    /// True for operations that read the memory.
    pub fn is_read(self) -> bool {
        matches!(self, MarchOp::Read(_))
    }

    /// True for operations that write the memory (normal or NWRC).
    pub fn is_write(self) -> bool {
        matches!(self, MarchOp::Write(_) | MarchOp::NwrcWrite(_))
    }

    /// True for NWRC writes.
    pub fn is_nwrc(self) -> bool {
        matches!(self, MarchOp::NwrcWrite(_))
    }

    /// True for retention pauses.
    pub fn is_pause(self) -> bool {
        matches!(self, MarchOp::Pause(_))
    }

    /// The logical data value carried by the operation, if any.
    pub fn value(self) -> Option<bool> {
        match self {
            MarchOp::Read(v) | MarchOp::Write(v) | MarchOp::NwrcWrite(v) => Some(v),
            MarchOp::Pause(_) => None,
        }
    }
}

impl fmt::Display for MarchOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarchOp::Read(v) => write!(f, "r{}", u8::from(*v)),
            MarchOp::Write(v) => write!(f, "w{}", u8::from(*v)),
            MarchOp::NwrcWrite(v) => write!(f, "Nw{}", u8::from(*v)),
            MarchOp::Pause(ms) => write!(f, "del{ms}"),
        }
    }
}

/// Address order of a March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressOrder {
    /// Ascending address order (⇑).
    Ascending,
    /// Descending address order (⇓).
    Descending,
    /// Either order is acceptable (⇕); executed ascending.
    #[default]
    Either,
}

impl AddressOrder {
    /// Symbol used in the classical notation.
    pub fn symbol(self) -> &'static str {
        match self {
            AddressOrder::Ascending => "⇑",
            AddressOrder::Descending => "⇓",
            AddressOrder::Either => "⇕",
        }
    }

    /// Visits the addresses of one element sweep in this order, without
    /// allocating: every address of a `words`-word memory, or only
    /// `rows` (ascending and distinct) when given. `Either` runs
    /// ascending. Stops at, and returns, the first error `visit` returns.
    pub fn sweep<E>(
        self,
        words: u64,
        rows: Option<&[Address]>,
        mut visit: impl FnMut(Address) -> Result<(), E>,
    ) -> Result<(), E> {
        let descending = self == AddressOrder::Descending;
        match rows {
            Some(rows) if descending => rows.iter().rev().try_for_each(|&address| visit(address)),
            Some(rows) => rows.iter().try_for_each(|&address| visit(address)),
            None if descending => (0..words).rev().try_for_each(|row| visit(Address::new(row))),
            None => (0..words).try_for_each(|row| visit(Address::new(row))),
        }
    }
}

impl fmt::Display for AddressOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A March element: an address order plus the operations applied to
/// every address in that order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MarchElement {
    /// Address order of the element.
    pub order: AddressOrder,
    /// Operations applied at each address.
    pub ops: Vec<MarchOp>,
    /// Optional label used in reports (`M0`, `M1`, ...).
    pub label: Option<String>,
}

impl MarchElement {
    /// Creates a March element.
    pub fn new(order: AddressOrder, ops: Vec<MarchOp>) -> Self {
        MarchElement {
            order,
            ops,
            label: None,
        }
    }

    /// Creates a labelled March element.
    pub fn labelled(label: impl Into<String>, order: AddressOrder, ops: Vec<MarchOp>) -> Self {
        MarchElement {
            order,
            ops,
            label: Some(label.into()),
        }
    }

    /// Number of operations applied per address.
    pub fn ops_per_address(&self) -> usize {
        self.ops.iter().filter(|op| !op.is_pause()).count()
    }

    /// Number of read operations per address.
    pub fn reads_per_address(&self) -> usize {
        self.ops.iter().filter(|op| op.is_read()).count()
    }

    /// Number of write operations (normal plus NWRC) per address.
    pub fn writes_per_address(&self) -> usize {
        self.ops.iter().filter(|op| op.is_write()).count()
    }

    /// Total pause time in milliseconds contributed by this element
    /// (pauses apply once per element, not per address).
    pub fn pause_ms(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                MarchOp::Pause(ms) => Some(u64::from(*ms)),
                _ => None,
            })
            .sum()
    }

    /// True if the element contains any NWRC write.
    pub fn has_nwrc(&self) -> bool {
        self.ops.iter().any(|op| op.is_nwrc())
    }

    /// True if the element contains a retention pause.
    pub fn has_pause(&self) -> bool {
        self.ops.iter().any(|op| op.is_pause())
    }
}

impl fmt::Display for MarchElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.order)?;
        for (index, op) in self.ops.iter().enumerate() {
            if index > 0 {
                write!(f, ",")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, ")")
    }
}

/// A complete March test: a named sequence of March elements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MarchTest {
    name: String,
    elements: Vec<MarchElement>,
}

impl MarchTest {
    /// Creates a March test from its elements.
    pub fn new(name: impl Into<String>, elements: Vec<MarchElement>) -> Self {
        MarchTest {
            name: name.into(),
            elements,
        }
    }

    /// Name of the algorithm (e.g. `"March C-"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The elements of the test.
    pub fn elements(&self) -> &[MarchElement] {
        &self.elements
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Classical complexity: total operations per address summed over all
    /// elements (the `10n` of March C− is `complexity_per_address() = 10`).
    pub fn complexity_per_address(&self) -> usize {
        self.elements.iter().map(MarchElement::ops_per_address).sum()
    }

    /// Total operation count for a memory of `words` addresses.
    pub fn operation_count(&self, words: u64) -> u64 {
        self.complexity_per_address() as u64 * words
    }

    /// Total read operations for a memory of `words` addresses.
    pub fn read_count(&self, words: u64) -> u64 {
        self.elements
            .iter()
            .map(|e| e.reads_per_address() as u64)
            .sum::<u64>()
            * words
    }

    /// Total write operations for a memory of `words` addresses.
    pub fn write_count(&self, words: u64) -> u64 {
        self.elements
            .iter()
            .map(|e| e.writes_per_address() as u64)
            .sum::<u64>()
            * words
    }

    /// Total retention pause time in milliseconds.
    pub fn pause_ms(&self) -> u64 {
        self.elements.iter().map(MarchElement::pause_ms).sum()
    }

    /// True if any element carries an NWRC write (NWRTM merged in).
    pub fn has_nwrc(&self) -> bool {
        self.elements.iter().any(MarchElement::has_nwrc)
    }

    /// True if any element carries a retention pause.
    pub fn has_pause(&self) -> bool {
        self.elements.iter().any(MarchElement::has_pause)
    }

    /// Returns a copy of the test with a different name.
    pub fn renamed(&self, name: impl Into<String>) -> MarchTest {
        MarchTest {
            name: name.into(),
            elements: self.elements.clone(),
        }
    }

    /// Appends the elements of `other` after this test's elements.
    pub fn concatenated(&self, other: &MarchTest, name: impl Into<String>) -> MarchTest {
        let mut elements = self.elements.clone();
        elements.extend(other.elements.iter().cloned());
        MarchTest {
            name: name.into(),
            elements,
        }
    }
}

impl fmt::Display for MarchTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (index, element) in self.elements.iter().enumerate() {
            if index > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{element}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_element() -> MarchElement {
        MarchElement::new(
            AddressOrder::Ascending,
            vec![MarchOp::Read(false), MarchOp::Write(true)],
        )
    }

    #[test]
    fn sweeps_visit_the_memory_or_the_given_rows_in_element_order() {
        let walk = |order: AddressOrder, rows: Option<&[Address]>| {
            let mut seen = Vec::new();
            order
                .sweep(4, rows, |address| {
                    seen.push(address.index());
                    Ok::<(), ()>(())
                })
                .unwrap();
            seen
        };
        assert_eq!(walk(AddressOrder::Ascending, None), vec![0, 1, 2, 3]);
        assert_eq!(walk(AddressOrder::Either, None), vec![0, 1, 2, 3]);
        assert_eq!(walk(AddressOrder::Descending, None), vec![3, 2, 1, 0]);
        let rows = [Address::new(1), Address::new(3)];
        assert_eq!(walk(AddressOrder::Either, Some(&rows)), vec![1, 3]);
        assert_eq!(walk(AddressOrder::Descending, Some(&rows)), vec![3, 1]);
        assert!(walk(AddressOrder::Descending, Some(&[])).is_empty());
        // The first error ends the sweep.
        let mut visited = 0;
        let stopped = AddressOrder::Ascending.sweep(4, None, |address| {
            visited += 1;
            if address.index() == 1 {
                Err(address)
            } else {
                Ok(())
            }
        });
        assert_eq!((stopped, visited), (Err(Address::new(1)), 2));
    }

    #[test]
    fn op_predicates_and_values() {
        assert!(MarchOp::Read(false).is_read());
        assert!(MarchOp::Write(true).is_write());
        assert!(MarchOp::NwrcWrite(true).is_write());
        assert!(MarchOp::NwrcWrite(false).is_nwrc());
        assert!(MarchOp::Pause(100).is_pause());
        assert_eq!(MarchOp::Read(true).value(), Some(true));
        assert_eq!(MarchOp::Pause(100).value(), None);
    }

    #[test]
    fn op_display_matches_notation() {
        assert_eq!(MarchOp::Read(false).to_string(), "r0");
        assert_eq!(MarchOp::Write(true).to_string(), "w1");
        assert_eq!(MarchOp::NwrcWrite(true).to_string(), "Nw1");
        assert_eq!(MarchOp::Pause(100).to_string(), "del100");
    }

    #[test]
    fn element_counts_reads_writes_and_pauses() {
        let element = MarchElement::new(
            AddressOrder::Either,
            vec![
                MarchOp::NwrcWrite(true),
                MarchOp::NwrcWrite(true),
                MarchOp::Write(true),
                MarchOp::Read(true),
                MarchOp::Pause(100),
            ],
        );
        assert_eq!(element.ops_per_address(), 4);
        assert_eq!(element.reads_per_address(), 1);
        assert_eq!(element.writes_per_address(), 3);
        assert_eq!(element.pause_ms(), 100);
        assert!(element.has_nwrc());
        assert!(element.has_pause());
    }

    #[test]
    fn element_display_uses_arrows_and_commas() {
        assert_eq!(sample_element().to_string(), "⇑(r0,w1)");
        let e = MarchElement::new(AddressOrder::Descending, vec![MarchOp::Write(false)]);
        assert_eq!(e.to_string(), "⇓(w0)");
        let e = MarchElement::new(AddressOrder::Either, vec![MarchOp::Read(true)]);
        assert_eq!(e.to_string(), "⇕(r1)");
    }

    #[test]
    fn labelled_elements_keep_their_label() {
        let e = MarchElement::labelled("M1", AddressOrder::Ascending, vec![MarchOp::Read(false)]);
        assert_eq!(e.label.as_deref(), Some("M1"));
    }

    #[test]
    fn test_complexity_accounting() {
        let test = MarchTest::new(
            "toy",
            vec![
                MarchElement::new(AddressOrder::Either, vec![MarchOp::Write(false)]),
                sample_element(),
                MarchElement::new(
                    AddressOrder::Descending,
                    vec![MarchOp::Read(true), MarchOp::Write(false)],
                ),
            ],
        );
        assert_eq!(test.complexity_per_address(), 5);
        assert_eq!(test.operation_count(16), 80);
        assert_eq!(test.read_count(16), 32);
        assert_eq!(test.write_count(16), 48);
        assert_eq!(test.pause_ms(), 0);
        assert!(!test.has_nwrc());
        assert!(!test.has_pause());
        assert_eq!(test.element_count(), 3);
    }

    #[test]
    fn renamed_and_concatenated_compose_tests() {
        let a = MarchTest::new("a", vec![sample_element()]);
        let b = MarchTest::new("b", vec![sample_element(), sample_element()]);
        let c = a.concatenated(&b, "a+b");
        assert_eq!(c.name(), "a+b");
        assert_eq!(c.element_count(), 3);
        assert_eq!(a.renamed("a2").name(), "a2");
        assert_eq!(a.renamed("a2").elements(), a.elements());
    }

    #[test]
    fn test_display_lists_elements() {
        let test = MarchTest::new("demo", vec![sample_element(), sample_element()]);
        assert_eq!(test.to_string(), "demo: ⇑(r0,w1); ⇑(r0,w1)");
    }
}
