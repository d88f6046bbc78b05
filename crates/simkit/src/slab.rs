//! A slot-addressed arena for records that live as long as something is in
//! flight.
//!
//! [`Slab`] hands out a [`Slot`] per inserted value and takes the value
//! back when the slot is removed; freed slots are reused before the arena
//! grows, so its footprint is the most values that were ever live at once
//! ([`Slab::high_water`]), not the number ever inserted. The serving
//! simulator keeps one record per query between its arrival and its
//! terminal state here, which is what makes a replay's memory independent
//! of its length. [`EventQueue`](crate::event::EventQueue) keeps its
//! pending events' payloads in one too.
//!
//! A [`Slot`] is a bare index in release builds. Debug builds add a
//! generation tag to the slot and to the entry it names, and every access
//! asserts they match: a slot kept past its `remove` fails loudly instead
//! of reading whichever record moved in.

use std::ops::{Index, IndexMut};

/// Handle to one live value of a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    index: u32,
    #[cfg(debug_assertions)]
    generation: u32,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    value: Option<T>,
    /// Bumped on every removal, so slots of earlier tenants stop matching.
    #[cfg(debug_assertions)]
    generation: u32,
}

/// A slot-addressed arena that recycles freed slots.
///
/// # Examples
///
/// ```
/// use diffserve_simkit::slab::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("a");
/// let b = slab.insert("b");
/// assert_eq!(slab[a], "a");
/// assert_eq!(slab.remove(a), "a");
/// // The freed slot is reused: two values were live at most.
/// let c = slab.insert("c");
/// assert_eq!((slab[b], slab[c]), ("b", "c"));
/// assert_eq!((slab.len(), slab.high_water()), (2, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Freed entries, reused before `entries` grows.
    free: Vec<u32>,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Creates an empty slab with room for `capacity` live values before
    /// it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Stores `value` and returns the slot naming it.
    pub fn insert(&mut self, value: T) -> Slot {
        let index = match self.free.pop() {
            Some(index) => {
                self.entries[index as usize].value = Some(value);
                index
            }
            None => {
                let index = u32::try_from(self.entries.len()).expect("slab index fits in u32");
                self.entries.push(Entry {
                    value: Some(value),
                    #[cfg(debug_assertions)]
                    generation: 0,
                });
                index
            }
        };
        Slot {
            index,
            #[cfg(debug_assertions)]
            generation: self.entries[index as usize].generation,
        }
    }

    /// Takes the value out of `slot` and frees it for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn remove(&mut self, slot: Slot) -> T {
        let entry = &mut self.entries[slot.index as usize];
        #[cfg(debug_assertions)]
        {
            assert_eq!(entry.generation, slot.generation, "slot used after free");
            entry.generation = entry.generation.wrapping_add(1);
        }
        let value = entry.value.take().expect("removed slot is live");
        self.free.push(slot.index);
        value
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Returns `true` if no value is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most values that were ever live at once: the arena grows only
    /// when every entry is taken, so its length is that count.
    pub fn high_water(&self) -> usize {
        self.entries.len()
    }

    /// How many values the arena holds before it reallocates.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The live values, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().filter_map(|e| e.value.as_ref())
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Index<Slot> for Slab<T> {
    type Output = T;

    #[inline]
    fn index(&self, slot: Slot) -> &T {
        let entry = &self.entries[slot.index as usize];
        #[cfg(debug_assertions)]
        assert_eq!(entry.generation, slot.generation, "slot used after free");
        entry.value.as_ref().expect("indexed slot is live")
    }
}

impl<T> IndexMut<Slot> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, slot: Slot) -> &mut T {
        let entry = &mut self.entries[slot.index as usize];
        #[cfg(debug_assertions)]
        assert_eq!(entry.generation, slot.generation, "slot used after free");
        entry.value.as_mut().expect("indexed slot is live")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn steady_churn_stays_at_its_high_water_mark() {
        let mut slab = Slab::new();
        let mut live: Vec<Slot> = (0..4u64).map(|i| slab.insert(i)).collect();
        for i in 4..10_000u64 {
            let slot = live.remove(0);
            assert_eq!(slab.remove(slot), i - 4);
            live.push(slab.insert(i));
        }
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.high_water(), 4);
    }

    #[test]
    fn with_capacity_preallocates_without_growing_the_high_water() {
        let slab: Slab<u32> = Slab::with_capacity(1024);
        assert!(slab.capacity() >= 1024);
        assert_eq!((slab.len(), slab.high_water()), (0, 0));
    }

    #[test]
    fn values_lists_only_the_living() {
        let mut slab = Slab::new();
        let slots: Vec<Slot> = (0..5).map(|i| slab.insert(i)).collect();
        slab.remove(slots[1]);
        slab.remove(slots[3]);
        assert_eq!(slab.values().copied().collect::<Vec<_>>(), [0, 2, 4]);
        slab[slots[2]] = 20;
        assert_eq!(slab[slots[2]], 20);
        assert!(!slab.is_empty());
    }

    #[test]
    #[should_panic]
    fn reading_a_freed_slot_panics() {
        let mut slab = Slab::new();
        let slot = slab.insert(1);
        slab.remove(slot);
        let _ = slab[slot];
    }

    /// What release builds cannot see: the slot was freed and the entry
    /// has a new tenant.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot used after free")]
    fn a_stale_slot_does_not_read_the_new_tenant() {
        let mut slab = Slab::new();
        let stale = slab.insert(1);
        slab.remove(stale);
        slab.insert(2);
        let _ = slab[stale];
    }

    proptest! {
        /// Against a map keyed by insertion number: every live value reads
        /// back, and the arena is never larger than the peak live count.
        #[test]
        fn matches_a_map(ops in proptest::collection::vec((0u8..3, 0usize..64), 0..300)) {
            let mut slab = Slab::new();
            let mut model: Vec<(Slot, usize)> = Vec::new();
            let mut peak = 0;
            for (n, &(op, pick)) in ops.iter().enumerate() {
                if op == 0 && !model.is_empty() {
                    let (slot, want) = model.swap_remove(pick % model.len());
                    prop_assert_eq!(slab.remove(slot), want);
                } else {
                    model.push((slab.insert(n), n));
                }
                peak = peak.max(model.len());
                prop_assert_eq!(slab.len(), model.len());
                prop_assert_eq!(slab.high_water(), peak);
                for &(slot, want) in &model {
                    prop_assert_eq!(slab[slot], want);
                }
            }
        }
    }
}
