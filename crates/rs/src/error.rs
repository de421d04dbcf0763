//! Error type of the MDS code.

use std::fmt;

/// Errors produced when encoding or decoding with an `[n, k]` MDS code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The `[n, k]` parameters are not representable (k = 0, k > n or n > 255
    /// for a GF(2^8) code).
    InvalidParameters {
        /// Requested code length.
        n: usize,
        /// Requested code dimension.
        k: usize,
    },
    /// A coded-element index was outside `0..n`.
    InvalidIndex {
        /// The offending index.
        index: usize,
        /// The code length.
        n: usize,
    },
    /// Two coded elements carried the same index.
    DuplicateIndex {
        /// The repeated index.
        index: usize,
    },
    /// Fewer than the required number of coded elements were supplied.
    NotEnoughElements {
        /// How many were supplied.
        have: usize,
        /// How many are required.
        need: usize,
    },
    /// The coded elements do not all have the same length.
    InconsistentElementLength,
    /// The error-correcting decoder could not produce a consistent codeword
    /// (more corrupt elements than the code can tolerate).
    TooManyErrors,
    /// The decoded payload holds no end marker where one must be (its last
    /// `k` bytes are all zero, or their last non-zero byte is not `0x80`),
    /// indicating corruption beyond repair.
    CorruptPayload,
}

impl From<crate::ReassembleError> for CodeError {
    /// Any reassembly failure after a successful decode means the decoded
    /// symbols are structurally corrupt.
    fn from(_: crate::ReassembleError) -> Self {
        CodeError::CorruptPayload
    }
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParameters { n, k } => {
                write!(f, "invalid [n={n}, k={k}] code parameters")
            }
            CodeError::InvalidIndex { index, n } => {
                write!(f, "coded element index {index} out of range 0..{n}")
            }
            CodeError::DuplicateIndex { index } => {
                write!(f, "duplicate coded element index {index}")
            }
            CodeError::NotEnoughElements { have, need } => {
                write!(f, "not enough coded elements: have {have}, need {need}")
            }
            CodeError::InconsistentElementLength => {
                write!(f, "coded elements have inconsistent lengths")
            }
            CodeError::TooManyErrors => {
                write!(f, "too many corrupted coded elements to decode")
            }
            CodeError::CorruptPayload => write!(f, "decoded payload is structurally corrupt"),
        }
    }
}

impl std::error::Error for CodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msgs = [
            CodeError::InvalidParameters { n: 4, k: 9 }.to_string(),
            CodeError::InvalidIndex { index: 7, n: 5 }.to_string(),
            CodeError::DuplicateIndex { index: 2 }.to_string(),
            CodeError::NotEnoughElements { have: 1, need: 3 }.to_string(),
            CodeError::InconsistentElementLength.to_string(),
            CodeError::TooManyErrors.to_string(),
            CodeError::CorruptPayload.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(CodeError::InvalidParameters { n: 4, k: 9 }
            .to_string()
            .contains("n=4"));
    }
}
