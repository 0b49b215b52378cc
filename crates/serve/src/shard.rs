//! Sharded Cinema frame index.
//!
//! The image database a campaign leaves behind can hold millions of
//! frames; the serving layer partitions the timestep keyspace into
//! shards so a lookup probes one small sorted run instead of the whole
//! index. Sharding is by `timestep % shards` — a pure function of the
//! key, so the shard a frame lands in never depends on insertion order,
//! host, or thread count.
//!
//! The index stores positions into the backing
//! [`CinemaDatabase`] rather than borrowing
//! it, so the server can own both without self-reference.

use ivis_viz::cinema::CinemaEntry;
use ivis_viz::CinemaDatabase;

/// A per-shard sorted index over a Cinema database.
#[derive(Debug, Clone)]
pub struct ShardedFrameIndex {
    /// `shards[s]` holds `(timestep, entry_position)` sorted by timestep.
    shards: Vec<Vec<(u64, u32)>>,
}

impl ShardedFrameIndex {
    /// Build an index with `shards` partitions (at least 1).
    pub fn build(db: &CinemaDatabase, shards: usize) -> Self {
        let n = shards.max(1);
        let mut parts: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n];
        for (i, e) in db.entries().iter().enumerate() {
            parts[(e.timestep % n as u64) as usize].push((e.timestep, i as u32));
        }
        for p in &mut parts {
            p.sort_unstable_by_key(|&(ts, _)| ts);
        }
        ShardedFrameIndex { shards: parts }
    }

    /// Which shard holds `timestep`.
    pub(crate) fn shard_of(&self, timestep: u64) -> usize {
        (timestep % self.shards.len() as u64) as usize
    }

    /// Look up the frame at exactly `timestep`, probing only its shard.
    ///
    /// Total: a timestep absent from every shard, or an index that is
    /// stale relative to `db` (position out of range, or pointing at a
    /// different frame), returns `None` — never a panic — so the server
    /// can degrade to a typed 404.
    pub fn lookup<'db>(&self, db: &'db CinemaDatabase, timestep: u64) -> Option<&'db CinemaEntry> {
        let shard = &self.shards[self.shard_of(timestep)];
        let pos = shard.binary_search_by_key(&timestep, |&(ts, _)| ts).ok()?;
        let entry = db.entries().get(shard[pos].1 as usize)?;
        (entry.timestep == timestep).then_some(entry)
    }

    /// Total frames indexed (sum over shards).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(frames: u64) -> CinemaDatabase {
        CinemaDatabase::synthetic("shard-test", frames, 4, 4, 16)
    }

    #[test]
    fn lookup_agrees_with_linear_accessor_across_shard_counts() {
        let db = db(37);
        for shards in [1, 2, 7, 64] {
            let idx = ShardedFrameIndex::build(&db, shards);
            assert_eq!(idx.len(), 37);
            for ts in (0..37 * 16).step_by(8) {
                let via_index = idx.lookup(&db, ts).map(|e| e.filename.as_str());
                let via_db = db.entry_by_timestep(ts).map(|e| e.filename.as_str());
                assert_eq!(via_index, via_db, "ts={ts} shards={shards}");
            }
        }
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let db = db(64);
        let idx = ShardedFrameIndex::build(&db, 8);
        assert_eq!(idx.shards.len(), 8);
        assert_eq!(idx.len(), 64);
        // timestep 16k lands in shard (16k % 8) = 0 for every frame here.
        assert_eq!(idx.shard_of(32), 0);
        assert_eq!(idx.shard_of(33), 1);
    }

    #[test]
    fn missing_timestep_is_none_in_every_shard() {
        // The synthetic db strides timesteps by 16, so 5 lands in
        // between entries for any shard count.
        let db = db(37);
        for shards in [1, 2, 7, 64] {
            let idx = ShardedFrameIndex::build(&db, shards);
            assert!(idx.lookup(&db, 5).is_none(), "shards={shards}");
            assert!(idx.lookup(&db, 37 * 16 + 16).is_none(), "shards={shards}");
        }
    }

    #[test]
    fn stale_index_degrades_to_none_not_panic() {
        // An index built over a larger database probed against a
        // smaller one: positions past the end and positions that now
        // name a different frame must both miss cleanly.
        let big = db(37);
        let small = db(2);
        let idx = ShardedFrameIndex::build(&big, 4);
        for ts in (0..37 * 16).step_by(16) {
            let hit = idx.lookup(&small, ts);
            if let Some(e) = hit {
                assert_eq!(e.timestep, ts);
            }
        }
        // Timestep 32 exists in `big` at position 2 — past `small`'s end.
        assert!(idx.lookup(&small, 32).is_none());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let db = db(4);
        let idx = ShardedFrameIndex::build(&db, 0);
        assert_eq!(idx.shards.len(), 1);
        assert!(idx.lookup(&db, 16).is_some());
        assert_eq!(idx.len(), 4);
    }
}
