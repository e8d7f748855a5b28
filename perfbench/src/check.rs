//! Output checks run on every timed campaign. A campaign that fails any
//! of them counts as a failed operation.

use crate::adapter::Outcome;

/// Checks one campaign's outcome. `expected_digest` is the digest an
/// earlier campaign of the same workload and seed produced, if any.
pub fn check(o: &Outcome, expected_digest: Option<u64>) -> Result<(), String> {
    if o.records == 0 {
        return Err("campaign wrote no records".into());
    }
    if o.writer_records != o.records {
        return Err(format!(
            "writer counted {} records, campaign reported {}",
            o.writer_records, o.records
        ));
    }
    if o.offered != o.captured + o.lost {
        return Err(format!(
            "capture ledger broken: offered {} != captured {} + lost {}",
            o.offered, o.captured, o.lost
        ));
    }
    if let Some(d) = expected_digest {
        if d != o.digest {
            return Err(format!(
                "dataset digest {:016x} differs from {:016x} of the same seed",
                o.digest, d
            ));
        }
    }
    Ok(())
}

/// Checks the batched dataset against the serial oracle's.
pub fn check_oracle(o: &Outcome, oracle_digest: u64, oracle_records: u64) -> Result<(), String> {
    if oracle_records != o.records {
        return Err(format!(
            "serial oracle wrote {oracle_records} records, batched tail {}",
            o.records
        ));
    }
    if oracle_digest != o.digest {
        return Err(format!(
            "batched dataset {:016x} differs from the serial oracle's {oracle_digest:016x}",
            o.digest
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Outcome {
        Outcome {
            records: 10,
            writer_records: 10,
            digest: 0xABCD,
            offered: 30,
            captured: 28,
            lost: 2,
            ..Outcome::default()
        }
    }

    #[test]
    fn accepts_a_consistent_outcome() {
        assert_eq!(check(&good(), None), Ok(()));
        assert_eq!(check(&good(), Some(0xABCD)), Ok(()));
        assert_eq!(check_oracle(&good(), 0xABCD, 10), Ok(()));
    }

    #[test]
    fn rejects_a_corrupted_digest() {
        assert!(check(&good(), Some(0xABCE)).is_err());
        assert!(check_oracle(&good(), 0xABCE, 10).is_err());
    }

    #[test]
    fn rejects_a_broken_capture_ledger() {
        let mut o = good();
        o.lost = 3;
        assert!(check(&o, None).unwrap_err().contains("ledger"));
    }

    #[test]
    fn rejects_a_record_count_mismatch() {
        let mut o = good();
        o.writer_records = 9;
        assert!(check(&o, None).is_err());
        assert!(check_oracle(&good(), 0xABCD, 11).is_err());
    }
}
