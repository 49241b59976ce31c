//! Mixed-radix node addressing.
//!
//! Most families in the paper label a node with a digit vector
//! `(i_{n-1}, …, i_1, i_0)` where digit `j` ranges over `0..r_j`. The
//! orthogonal layout scheme (paper §3.1) splits this vector into a
//! high-digit half (the grid **row**) and a low-digit half (the grid
//! **column**), so converting between digit vectors and linear indices is
//! on the critical path of every layout generator.

/// A mixed-radix numbering system: digit `j` has radix `radices[j]`,
/// digit 0 is least significant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixedRadix {
    radices: Vec<usize>,
}

impl MixedRadix {
    /// Create a mixed-radix system. All radices must be ≥ 1.
    pub fn new(radices: Vec<usize>) -> Self {
        assert!(
            radices.iter().all(|&r| r >= 1),
            "all radices must be at least 1"
        );
        MixedRadix { radices }
    }

    /// A fixed-radix system with `n` digits of radix `k` (k-ary n-cube
    /// addressing).
    pub fn fixed(k: usize, n: usize) -> Self {
        Self::new(vec![k; n])
    }

    /// Number of digits.
    pub fn digit_count(&self) -> usize {
        self.radices.len()
    }

    /// Radix of digit `j` (digit 0 least significant).
    pub fn radix(&self, j: usize) -> usize {
        self.radices[j]
    }

    /// The radices, least significant first.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// Total number of representable values (`∏ r_j`).
    pub fn cardinality(&self) -> usize {
        self.radices.iter().product()
    }

    /// Convert a linear index to its digit vector (digit 0 least
    /// significant).
    ///
    /// # Panics
    /// If `index >= cardinality()`.
    pub fn digits_of(&self, index: usize) -> Vec<usize> {
        assert!(index < self.cardinality(), "index out of range");
        let mut rem = index;
        let mut digits = Vec::with_capacity(self.radices.len());
        for &r in &self.radices {
            digits.push(rem % r);
            rem /= r;
        }
        digits
    }

    /// Convert a digit vector (digit 0 least significant) to its linear
    /// index.
    ///
    /// # Panics
    /// If the digit count mismatches or any digit is out of range.
    pub fn index_of(&self, digits: &[usize]) -> usize {
        assert_eq!(digits.len(), self.radices.len(), "digit count mismatch");
        let mut index = 0usize;
        for j in (0..digits.len()).rev() {
            assert!(digits[j] < self.radices[j], "digit {j} out of range");
            index = index * self.radices[j] + digits[j];
        }
        index
    }

    /// The index obtained from `index` by setting digit `j` to `value`:
    /// the digit's old value times its place value is replaced by the
    /// new one, without materializing the digit vector.
    ///
    /// # Panics
    /// If `index >= cardinality()` or `value` is out of range.
    pub fn with_digit(&self, index: usize, j: usize, value: usize) -> usize {
        assert!(index < self.cardinality(), "index out of range");
        assert!(value < self.radices[j], "digit value out of range");
        let place: usize = self.radices[..j].iter().product();
        let old = index / place % self.radices[j];
        index - old * place + value * place
    }

    /// Digit `j` of `index` without materializing the whole vector.
    pub fn digit(&self, index: usize, j: usize) -> usize {
        let mut rem = index;
        for &r in &self.radices[..j] {
            rem /= r;
        }
        rem % self.radices[j]
    }

    /// Split this system into (low half, high half) at digit `at`:
    /// low = digits `0..at`, high = digits `at..`. The paper's orthogonal
    /// layout places a node at grid position (row = high value, column =
    /// low value).
    pub fn split(&self, at: usize) -> (MixedRadix, MixedRadix) {
        assert!(at <= self.radices.len());
        (
            MixedRadix::new_or_unit(self.radices[..at].to_vec()),
            MixedRadix::new_or_unit(self.radices[at..].to_vec()),
        )
    }

    /// Like `new` but an empty digit vector gives the unit system
    /// (cardinality 1, zero digits).
    fn new_or_unit(radices: Vec<usize>) -> MixedRadix {
        MixedRadix { radices }
    }

    /// Decompose `index` into `(low_value, high_value)` where low covers
    /// digits `0..at` and high covers digits `at..`.
    pub fn split_index(&self, index: usize, at: usize) -> (usize, usize) {
        let low_card: usize = self.radices[..at].iter().product();
        (index % low_card, index / low_card)
    }

    /// Iterate over every representable value (as linear indices).
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.cardinality()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fixed() {
        let mr = MixedRadix::fixed(3, 4);
        assert_eq!(mr.cardinality(), 81);
        for i in 0..81 {
            assert_eq!(mr.index_of(&mr.digits_of(i)), i);
        }
    }

    #[test]
    fn roundtrip_mixed() {
        let mr = MixedRadix::new(vec![2, 3, 5]);
        assert_eq!(mr.cardinality(), 30);
        for i in 0..30 {
            let d = mr.digits_of(i);
            assert!(d[0] < 2 && d[1] < 3 && d[2] < 5);
            assert_eq!(mr.index_of(&d), i);
        }
    }

    #[test]
    fn digit_accessor_matches_digits_of() {
        let mr = MixedRadix::new(vec![4, 2, 3]);
        for i in 0..mr.cardinality() {
            let d = mr.digits_of(i);
            for (j, &dj) in d.iter().enumerate() {
                assert_eq!(mr.digit(i, j), dj);
            }
        }
    }

    #[test]
    fn with_digit_changes_only_target() {
        let mr = MixedRadix::fixed(4, 3);
        let i = mr.index_of(&[1, 2, 3]);
        let j = mr.with_digit(i, 1, 0);
        assert_eq!(mr.digits_of(j), vec![1, 0, 3]);
    }

    #[test]
    fn with_digit_matches_digit_vectors() {
        let mr = MixedRadix::new(vec![4, 2, 3, 5]);
        for i in mr.indices() {
            for j in 0..mr.digit_count() {
                for value in 0..mr.radix(j) {
                    let mut d = mr.digits_of(i);
                    d[j] = value;
                    assert_eq!(mr.with_digit(i, j, value), mr.index_of(&d));
                }
            }
        }
    }

    #[test]
    fn split_consistency() {
        let mr = MixedRadix::new(vec![3, 4, 5, 2]);
        let (lo, hi) = mr.split(2);
        assert_eq!(lo.cardinality(), 12);
        assert_eq!(hi.cardinality(), 10);
        for i in 0..mr.cardinality() {
            let (l, h) = mr.split_index(i, 2);
            assert_eq!(h * lo.cardinality() + l, i);
        }
    }

    #[test]
    fn split_at_ends() {
        let mr = MixedRadix::fixed(2, 3);
        let (lo, hi) = mr.split(0);
        assert_eq!(lo.cardinality(), 1);
        assert_eq!(hi.cardinality(), 8);
        let (lo, hi) = mr.split(3);
        assert_eq!(lo.cardinality(), 8);
        assert_eq!(hi.cardinality(), 1);
    }
}
