//! How a built world is held: the part nothing changes after build,
//! once; and state a shard allocates only for what it owns.

use fxhash::FxHashMap;
use std::ops::{Index, IndexMut};

/// What `build` fixes for good, shared by every shard of a world.
#[derive(Debug)]
pub(crate) struct World {
    /// Name → node index: the one name index.
    pub names: FxHashMap<String, usize>,
    /// Owning shard per node index (all zero in a sequential world).
    pub shard_of: Vec<u8>,
}

/// Slot entry of an id this shard holds no state for.
const GHOST: u32 = u32::MAX;

/// Nodes or links indexed by their world-wide id, with state allocated
/// only for the ids this shard owns. Every other id is a ghost: a
/// four-byte slot entry and nothing else. Indexing a ghost panics (the
/// caller asked a shard about a node it does not own).
#[derive(Debug)]
pub(crate) struct Owned<T> {
    slot: Vec<u32>,
    items: Vec<T>,
}

impl<T> Owned<T> {
    /// Every id owned: the sequential engine and 1-shard worlds.
    pub fn all(items: Vec<T>) -> Self {
        assert!(items.len() < GHOST as usize, "too many ids for a slot");
        Owned {
            slot: (0..items.len() as u32).collect(),
            items,
        }
    }

    /// `ids` ghosts, to be filled by [`Owned::own`].
    pub fn ghosts(ids: usize) -> Self {
        assert!(ids < GHOST as usize, "too many ids for a slot");
        Owned {
            slot: vec![GHOST; ids],
            items: Vec::new(),
        }
    }

    /// Take ownership of ghost `id`.
    pub fn own(&mut self, id: usize, item: T) {
        debug_assert_eq!(self.slot[id], GHOST, "id {id} owned twice");
        self.slot[id] = self.items.len() as u32;
        self.items.push(item);
    }

    /// Ids in the world, owned or not.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// State of `id` when owned here; `None` for a ghost.
    pub fn get(&self, id: usize) -> Option<&T> {
        self.items.get(self.slot[id] as usize)
    }

    /// Mutable state of `id` when owned here; `None` for a ghost.
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.items.get_mut(self.slot[id] as usize)
    }
}

impl<T> Index<usize> for Owned<T> {
    type Output = T;
    #[inline]
    fn index(&self, id: usize) -> &T {
        &self.items[self.slot[id] as usize]
    }
}

impl<T> IndexMut<usize> for Owned<T> {
    #[inline]
    fn index_mut(&mut self, id: usize) -> &mut T {
        &mut self.items[self.slot[id] as usize]
    }
}
