//! The paper's cost model (Section II-h).
//!
//! Both storage and communication costs are normalized by the size of the
//! object value: a value counts as 1 unit, a coded element of an `[n, k]` code
//! as `1/k` units, and metadata as 0. These helpers convert raw byte counts
//! reported by the simulator into normalized units and provide the closed-form
//! expressions from the paper's theorems for comparison.

/// Converts a raw byte count into normalized units given the value size in
/// bytes. Returns 0 for an empty value (degenerate case used only in tests).
pub fn normalized(bytes: u64, value_size: usize) -> f64 {
    if value_size == 0 {
        return 0.0;
    }
    bytes as f64 / value_size as f64
}

/// Closed-form costs stated by the paper, used by the experiment harness to
/// compare measurement against theory.
pub mod paper {
    /// Total storage cost of SODA: `n / (n − f)` (Theorem 5.3).
    pub fn soda_storage(n: usize, f: usize) -> f64 {
        n as f64 / (n - f) as f64
    }

    /// Upper bound on the write communication cost of SODA: `5 f²`
    /// (Theorem 5.4). For `f = 0` the bound degenerates; the paper implicitly
    /// assumes `f ≥ 1`, and the harness reports `max(5f², 1)` so the bound is
    /// never below the cost of sending the value once.
    pub fn soda_write_bound(f: usize) -> f64 {
        (5 * f * f).max(1) as f64
    }

    /// Data the MD-VALUE fan-out of one write sends when every backbone
    /// server relays: the writer's `f + 1` full values, each backbone server's
    /// full values up the backbone (`f(f+1)/2` in all) and its coded elements
    /// to everyone else (`(f+1)(n−1−f) + f(f+1)/2`), normalized with a coded
    /// element of an `[n, k]` code counting `1/k`. This is what
    /// [`crate::md::MdValueRelay::on_full`] relays; a backbone server that
    /// receives its coded element before the full value relays nothing, so a
    /// write costs at most this. SODAerr's write is bounded by it; Theorem 5.4's `5f²` is
    /// proven for SODA only, and SODAerr's small `k` exceeds it.
    pub fn md_value_fanout(n: usize, f: usize, k: usize) -> f64 {
        let full = (f + 1) * (f + 2) / 2;
        let coded = (f + 1) * (n - 1 - f) + f * (f + 1) / 2;
        full as f64 + coded as f64 / k as f64
    }

    /// Read communication cost of SODA: `n/(n−f) · (δw + 1)` (Theorem 5.6).
    pub fn soda_read(n: usize, f: usize, delta_w: usize) -> f64 {
        n as f64 / (n - f) as f64 * (delta_w + 1) as f64
    }

    /// Total storage cost of SODAerr: `n / (n − f − 2e)` (Theorem 6.3).
    pub fn sodaerr_storage(n: usize, f: usize, e: usize) -> f64 {
        n as f64 / (n - f - 2 * e) as f64
    }

    /// Read cost of SODAerr: `n/(n−f−2e) · (δw + 1)` (Theorem 6.3).
    pub fn sodaerr_read(n: usize, f: usize, e: usize, delta_w: usize) -> f64 {
        n as f64 / (n - f - 2 * e) as f64 * (delta_w + 1) as f64
    }

    /// ABD write cost (Table I): `n`, the value stored at every server.
    pub fn abd_write(n: usize) -> f64 {
        n as f64
    }

    /// ABD read cost: `2n`, every server's value to the reader plus the
    /// write-back to every server (the write `n` / read `2n` split Cadambe
    /// et al. give for ABD).
    pub fn abd_read(n: usize) -> f64 {
        2.0 * n as f64
    }

    /// ABD total storage cost (Table I): `n`, one replica per server.
    pub fn abd_storage(n: usize) -> f64 {
        n as f64
    }

    /// CAS/CASGC per-operation communication cost: `n / (n − 2f)` (Section I-B).
    pub fn casgc_communication(n: usize, f: usize) -> f64 {
        n as f64 / (n - 2 * f) as f64
    }

    /// CASGC worst-case total storage: `n/(n−2f) · (δ + 1)` (Section I-B).
    pub fn casgc_storage(n: usize, f: usize, delta: usize) -> f64 {
        n as f64 / (n - 2 * f) as f64 * (delta + 1) as f64
    }

    /// Latency bounds of Theorem 5.7, in units of Δ.
    pub const SODA_WRITE_LATENCY_DELTAS: u64 = 5;
    /// Read latency bound of Theorem 5.7, in units of Δ.
    pub const SODA_READ_LATENCY_DELTAS: u64 = 6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(normalized(2048, 1024), 2.0);
        assert_eq!(normalized(0, 1024), 0.0);
        assert_eq!(normalized(100, 0), 0.0);
        assert!((normalized(1536, 1024) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn paper_formulas_match_table_one_at_fmax() {
        // Table I with n even and f = n/2 - 1: ABD = n (2n for a read with
        // its write-back), CASGC = n/2 per op, SODA storage <= 2 and read
        // <= 2(δw+1).
        let n = 10;
        let f = n / 2 - 1;
        assert_eq!(paper::abd_write(n), 10.0);
        assert_eq!(paper::abd_read(n), 20.0);
        assert_eq!(paper::abd_storage(n), 10.0);
        assert_eq!(paper::casgc_communication(n, f), 10.0 / 2.0);
        assert!((paper::soda_storage(n, f) - 10.0 / 6.0).abs() < 1e-12);
        assert!(paper::soda_storage(n, f) <= 2.0);
        for dw in 0..5 {
            assert!(paper::soda_read(n, f, dw) <= 2.0 * (dw + 1) as f64);
        }
        assert_eq!(paper::soda_write_bound(f), (5 * f * f) as f64);
    }

    #[test]
    fn sodaerr_storage_grows_with_e() {
        let n = 11;
        let f = 2;
        assert!(paper::sodaerr_storage(n, f, 2) > paper::sodaerr_storage(n, f, 1));
        assert_eq!(paper::sodaerr_storage(n, f, 0), paper::soda_storage(n, f));
        assert_eq!(paper::sodaerr_read(n, f, 1, 3), 11.0 / 7.0 * 4.0);
    }

    #[test]
    fn casgc_storage_is_rigid_in_delta() {
        assert_eq!(paper::casgc_storage(10, 2, 0), 10.0 / 6.0);
        assert_eq!(paper::casgc_storage(10, 2, 4), 10.0 / 6.0 * 5.0);
    }

    #[test]
    fn md_value_fanout_counts_full_values_and_coded_elements() {
        // SODA at (5, 2): 6 full values + 9 elements of a [5, 3] code.
        assert_eq!(paper::md_value_fanout(5, 2, 3), 9.0);
        // SODAerr at (12, 2, e = 4), k = 2: 6 + 30/2, above 5f² = 20.
        assert_eq!(paper::md_value_fanout(12, 2, 2), 21.0);
        assert!(paper::md_value_fanout(12, 2, 2) > paper::soda_write_bound(2));
    }

    #[test]
    fn write_bound_never_below_one() {
        assert_eq!(paper::soda_write_bound(0), 1.0);
        assert_eq!(paper::soda_write_bound(3), 45.0);
    }
}
