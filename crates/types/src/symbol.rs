//! Interned attribute names.
//!
//! Content-based pub/sub systems draw attribute names from a small, slowly
//! growing universe (the paper's workloads use a handful: `class`, `_seq`,
//! …), yet the matching hot path compares and hashes them for every event.
//! Interning turns each distinct name into a dense [`SymbolId`] exactly
//! once, after which:
//!
//! * equality and hashing are integer operations (no string walks);
//! * matching engines can replace per-event hash maps with counter arrays
//!   indexed by symbol;
//! * the name's bytes live forever in the process-wide table, so
//!   [`AttrName::as_str`] is a free `&'static str` — no locks, no copies.
//!
//! Interned strings are deliberately leaked: the name universe is bounded
//! in practice and a broker process keeps every subscription's attribute
//! names alive for its lifetime anyway.
//!
//! # Examples
//!
//! ```
//! use gryphon_types::AttrName;
//!
//! let a = AttrName::from("class");
//! let b = AttrName::from("class");
//! assert_eq!(a, b);
//! assert_eq!(a.sym(), b.sym());
//! assert_eq!(a.as_str(), "class");
//! ```

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Dense identifier of an interned attribute name.
///
/// Ids are assigned in interning order starting from 0, so they index
/// naturally into per-symbol arrays (the matching engine's counter
/// scratch). Two `SymbolId`s are equal iff their names are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(u32);

impl SymbolId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned attribute name: a [`SymbolId`] plus the leaked name bytes.
///
/// `Copy`, pointer-sized-ish, and cheap in every direction: equality and
/// [`Hash`] use the symbol id (integer ops), while [`Ord`] compares the
/// underlying strings so ordered containers keyed by `AttrName` iterate
/// in name order regardless of interning order — which keeps event
/// attribute iteration deterministic across runs and shard counts.
#[derive(Clone, Copy)]
pub struct AttrName {
    sym: SymbolId,
    name: &'static str,
}

struct Interner {
    by_name: HashMap<&'static str, AttrName>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            by_name: HashMap::new(),
        })
    })
}

impl AttrName {
    /// Interns `name`, returning its canonical [`AttrName`].
    ///
    /// The first interning of a distinct name leaks one copy of it and
    /// assigns the next [`SymbolId`]; later calls are a read-locked hash
    /// lookup.
    pub fn intern(name: &str) -> AttrName {
        let lock = interner();
        if let Some(&a) = lock.read().expect("interner poisoned").by_name.get(name) {
            return a;
        }
        let mut w = lock.write().expect("interner poisoned");
        if let Some(&a) = w.by_name.get(name) {
            return a; // raced: another thread interned it first
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let a = AttrName {
            sym: SymbolId(w.by_name.len() as u32),
            name: leaked,
        };
        w.by_name.insert(leaked, a);
        a
    }

    /// Looks `name` up **without** interning it: `None` if the name has
    /// never been interned. Use this on query paths fed by external input
    /// (e.g. [`Event::attr`](crate::Event::attr)) so unbounded garbage
    /// names cannot grow the table.
    pub fn lookup(name: &str) -> Option<AttrName> {
        interner()
            .read()
            .expect("interner poisoned")
            .by_name
            .get(name)
            .copied()
    }

    /// The dense symbol id.
    pub fn sym(self) -> SymbolId {
        self.sym
    }

    /// The name itself; free (`&'static str`, no locking).
    pub fn as_str(self) -> &'static str {
        self.name
    }
}

impl PartialEq for AttrName {
    fn eq(&self, other: &Self) -> bool {
        self.sym == other.sym
    }
}

impl Eq for AttrName {}

impl std::hash::Hash for AttrName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

// Order by name, not id: containers keyed by AttrName must iterate in an
// order independent of interning order (determinism across processes).
impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.sym == other.sym {
            return std::cmp::Ordering::Equal;
        }
        self.name.cmp(other.name)
    }
}

impl std::fmt::Debug for AttrName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.name)
    }
}

impl std::fmt::Display for AttrName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        AttrName::intern(s)
    }
}

impl From<&String> for AttrName {
    fn from(s: &String) -> Self {
        AttrName::intern(s)
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName::intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = AttrName::intern("test_sym_idem");
        let b = AttrName::intern("test_sym_idem");
        assert_eq!(a, b);
        assert_eq!(a.sym(), b.sym());
        assert_eq!(a.as_str(), "test_sym_idem");
        // The leaked strs are the same allocation.
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        let a = AttrName::intern("test_sym_a");
        let b = AttrName::intern("test_sym_b");
        assert_ne!(a, b);
        assert_ne!(a.sym(), b.sym());
    }

    #[test]
    fn lookup_does_not_intern() {
        // Checked on the name itself, not on the process-wide interner
        // size, which sibling tests grow in parallel.
        assert!(AttrName::lookup("test_sym_never_interned_xyzzy").is_none());
        assert!(
            AttrName::lookup("test_sym_never_interned_xyzzy").is_none(),
            "a lookup interned the name"
        );
        let a = AttrName::intern("test_sym_lookup");
        assert_eq!(AttrName::lookup("test_sym_lookup"), Some(a));
    }

    #[test]
    fn order_follows_names() {
        let z = AttrName::intern("test_sym_zz");
        let a = AttrName::intern("test_sym_aa");
        // `z` was interned first (smaller id) but still sorts after `a`.
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn hash_follows_symbol() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(AttrName::intern("test_sym_h1"));
        set.insert(AttrName::intern("test_sym_h1"));
        set.insert(AttrName::intern("test_sym_h2"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_and_debug() {
        let a = AttrName::intern("test_sym_disp");
        assert_eq!(a.to_string(), "test_sym_disp");
        assert_eq!(format!("{a:?}"), "\"test_sym_disp\"");
    }

    #[test]
    fn concurrent_interning_converges() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| AttrName::intern("test_sym_race")))
            .collect();
        let ids: Vec<SymbolId> = handles
            .into_iter()
            .map(|h| h.join().unwrap().sym())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
