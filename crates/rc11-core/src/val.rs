//! Runtime values.
//!
//! The paper's value domain `Val` is left abstract; programs in the paper use
//! integers, booleans (CAS results, lock-acquire results) and the null value
//! `⊥` (the result of statements and value-less method calls, written
//! [`Val::Bot`] here).

use std::fmt;

/// A runtime value: an integer, a boolean, or the null value `⊥`.
///
/// `⊥` is *not* a member of the paper's `Val`; it is the distinguished result
/// of completed statements and of method calls that return nothing (e.g.
/// `Release`). Keeping it in the same enum keeps local-state updates uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Val {
    /// An integer value.
    Int(i64),
    /// A boolean value (e.g. the result of a `CAS`).
    Bool(bool),
    /// The `Empty` result of popping an empty stack (Figures 1–2 use
    /// `s.pop() = Empty` as the retry condition; `[s.pop emp]_t` asserts it
    /// is the only possible result).
    Empty,
    /// The null value `⊥` — the "result" of a completed statement.
    Bot,
}

impl Val {
    /// The integer payload, or `None` for booleans and `⊥`.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Val::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The boolean payload. Integers are *not* coerced: the paper's
    /// expression language keeps booleans and integers distinct.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// True iff this is the null value `⊥`.
    #[inline]
    pub fn is_bot(self) -> bool {
        matches!(self, Val::Bot)
    }

    /// Truthiness used by `if`/`while` guards: `Bool(b)` is `b`; any other
    /// value is a guard-evaluation error surfaced by the interpreter.
    #[inline]
    pub fn truthy(self) -> Option<bool> {
        self.as_bool()
    }

    /// Width of a value in the flat state buffers, in `u32` words.
    pub const WORDS: usize = 3;

    /// Encode as `[tag, low, high]` words — the representation registers
    /// and operation payloads take inside [`crate::Combined`]'s buffer.
    /// Injective, and unused payload words are zero, so equal values have
    /// equal encodings.
    #[inline]
    pub fn to_words(self) -> [u32; Val::WORDS] {
        match self {
            Val::Int(n) => [0, n as u32, ((n as u64) >> 32) as u32],
            Val::Bool(b) => [1, b as u32, 0],
            Val::Empty => [2, 0, 0],
            Val::Bot => [3, 0, 0],
        }
    }

    /// Decode [`Val::to_words`]' encoding (the first three words of `w`).
    #[inline]
    pub fn from_words(w: &[u32]) -> Val {
        match w[0] {
            0 => Val::Int((w[1] as u64 | (w[2] as u64) << 32) as i64),
            1 => Val::Bool(w[1] != 0),
            2 => Val::Empty,
            _ => Val::Bot,
        }
    }
}

impl From<i64> for Val {
    #[inline]
    fn from(n: i64) -> Self {
        Val::Int(n)
    }
}

impl From<bool> for Val {
    #[inline]
    fn from(b: bool) -> Self {
        Val::Bool(b)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Empty => write!(f, "Empty"),
            Val::Bot => write!(f, "⊥"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_encoding_round_trips() {
        for v in [Val::Int(0), Val::Int(-1), Val::Int(i64::MIN), Val::Int(i64::MAX),
                  Val::Bool(true), Val::Bool(false), Val::Empty, Val::Bot] {
            assert_eq!(Val::from_words(&v.to_words()), v);
        }
        assert_ne!(Val::Int(1).to_words(), Val::Bool(true).to_words());
    }

    #[test]
    fn int_round_trip() {
        let v = Val::from(42);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_bool(), None);
        assert!(!v.is_bot());
    }

    #[test]
    fn bool_round_trip() {
        let v = Val::from(true);
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(v.as_int(), None);
    }

    #[test]
    fn bot_is_distinct() {
        assert!(Val::Bot.is_bot());
        assert_ne!(Val::Bot, Val::Int(0));
        assert_ne!(Val::Bot, Val::Bool(false));
    }

    #[test]
    fn no_int_bool_coercion() {
        assert_eq!(Val::Int(1).truthy(), None);
        assert_eq!(Val::Bool(true).truthy(), Some(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Val::Int(-3).to_string(), "-3");
        assert_eq!(Val::Bool(false).to_string(), "false");
        assert_eq!(Val::Bot.to_string(), "⊥");
    }
}
