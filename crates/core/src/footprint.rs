//! Per-connection memory accounting (paper Table 1).
//!
//! REPS needs roughly 25 bytes of NIC state per connection, independent of
//! topology size — the paper's headline deployability claim. This module
//! reproduces the table's bit-level accounting, and prints beside it the
//! measured size of the simulator's [`Reps`](crate::reps::Reps), whose
//! field-by-field breakdown against the table is pinned in the tests. Like
//! a NIC, the simulator keeps REPS' configuration once (per cell) and its
//! `--diagnostics` counters per host, outside the per-connection state.

/// Bits per circular-buffer element: a 16-bit entropy plus a validity bit.
pub const ELEMENT_BITS: u64 = 16 + 1;

/// Bits of global state: head (8), numberOfValidEVs (8), exitFreezingMode
/// (32), isFreezingMode (1), exploreCounter (8).
pub const GLOBAL_BITS: u64 = 8 + 8 + 32 + 1 + 8;

/// Total per-connection footprint in bits for a buffer of `elements`.
///
/// # Examples
///
/// ```
/// // Table 1: 74 bits (~10 B) for 1 element, 193 bits (~25 B) for 8.
/// assert_eq!(reps::footprint::footprint_bits(1), 74);
/// assert_eq!(reps::footprint::footprint_bits(8), 193);
/// ```
pub fn footprint_bits(elements: u64) -> u64 {
    ELEMENT_BITS * elements + GLOBAL_BITS
}

/// Footprint in bytes, rounded up.
pub fn footprint_bytes(elements: u64) -> u64 {
    footprint_bits(elements).div_ceil(8)
}

/// Renders Table 1 as aligned text rows.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("Component                                  Footprint (bits)\n");
    out.push_str("Circular Buffer Element (x elements):\n");
    out.push_str("  Entropy Value (cachedEV)                 16\n");
    out.push_str("  Entropy Validity Bit (isValid)           1\n");
    out.push_str("Global Variables:\n");
    out.push_str("  Head Buffer (head)                       8\n");
    out.push_str("  Number Valid Entropies (numberOfValidEVs) 8\n");
    out.push_str("  Exit Freezing Time (exitFreezingMode)    32\n");
    out.push_str("  Is Freezing Mode (isFreezingMode)        1\n");
    out.push_str("  Explore Counter (exploreCounter)         8\n");
    out.push_str(&format!(
        "Total (1 element in buffer)                {} ~= {} bytes\n",
        footprint_bits(1),
        footprint_bytes(1)
    ));
    out.push_str(&format!(
        "Total (8 elements in buffer)               {} ~= {} bytes\n",
        footprint_bits(8),
        footprint_bytes(8)
    ));
    out.push_str(&format!(
        "Simulator Reps, 8 elements (size_of)       {} bytes (paper: {} bytes)\n",
        std::mem::size_of::<crate::reps::Reps>(),
        footprint_bytes(8)
    ));
    out.push_str("  (configuration per cell, decision counters per host)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_match_paper() {
        assert_eq!(footprint_bits(1), 74);
        assert_eq!(footprint_bits(8), 193);
        assert_eq!(footprint_bytes(1), 10);
        assert_eq!(footprint_bytes(8), 25);
    }

    #[test]
    fn footprint_is_linear_in_elements() {
        for n in 1..32 {
            assert_eq!(footprint_bits(n + 1) - footprint_bits(n), ELEMENT_BITS);
        }
    }

    #[test]
    fn table_renders_both_rows() {
        let t = table1();
        assert!(t.contains("74"));
        assert!(t.contains("193"));
        assert!(t.contains("25 bytes"));
        assert!(t.contains("Simulator Reps, 8 elements (size_of)       48 bytes (paper: 25 bytes)"));
    }

    /// The simulator's per-connection REPS state, measured: `size_of` of
    /// [`Reps`](crate::reps::Reps) at the default configuration (8-entry
    /// buffer, held inline — no heap block besides) is pinned, and every
    /// byte of it is accounted for against Table 1's bits. The struct
    /// itself has no padding; the ring's enum tag and alignment are listed
    /// as their own row. The configuration is the cell's one
    /// [`RepsConfig`](crate::reps::RepsConfig) and the `--diagnostics`
    /// counters are per host, so neither has a row.
    #[test]
    fn reps_size_is_pinned_against_table1() {
        // (field, Table 1 bits, bytes in `Reps`)
        let rows: [(&str, u64, usize); 12] = [
            // Table 1's state. `isValid` is derived: the valid slots are
            // the `num_valid` just behind `head`.
            ("8 x cachedEV: ring's inline slots", 8 * 16, 8 * 2),
            ("8 x isValid", 8, 0),
            ("head", 8, 2),
            ("numberOfValidEVs: num_valid", 8, 4),
            ("exitFreezingMode: exit_freezing (ps)", 32, 8),
            ("isFreezingMode: freezing", 1, 1),
            ("exploreCounter: explore_counter", 8, 4),
            // Algorithm bookkeeping the table leaves to the NIC.
            ("ring's written-prefix length", 0, 1),
            ("ring's tag and padding (boxed heap form for buf > 8)", 0, 7),
            ("last_cwnd_packets", 0, 4),
            ("last_decision", 0, 1),
            ("struct padding", 0, 0),
        ];
        let bits: u64 = rows.iter().map(|r| r.1).sum();
        let bytes: usize = rows.iter().map(|r| r.2).sum();
        assert_eq!(bits, footprint_bits(8), "Table 1 rows");
        assert_eq!(footprint_bytes(8), 25);
        assert_eq!(std::mem::size_of::<crate::reps::Reps>(), 48);
        assert_eq!(bytes, 48, "breakdown rows");
        assert_eq!(
            std::mem::size_of::<crate::reps::Ring>(),
            8 * 2 + 1 + 7,
            "the ring"
        );
    }
}
