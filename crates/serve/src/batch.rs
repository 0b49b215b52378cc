//! Micro-batching of what-if requests.
//!
//! What-if queries are pure functions of small keys, so grouping
//! concurrent requests into one service unit amortizes dispatch overhead
//! and lets duplicate keys inside the window share a single evaluation.
//! A batch stays open for at most the configured window of simulated
//! time and at most `max_batch` members, whichever closes it first.
//! The batcher itself is plain state — the reactor owns the clock and
//! schedules the deadline events, keyed by the batch id the batcher
//! hands out. A deadline always fires; once its batch has filled it is
//! stale, and `Batcher::close_deadline` turns it into a no-op.

/// What happened when a request joined the batcher.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BatchAdd {
    /// The request opened a fresh batch: the reactor must schedule a
    /// deadline for this id, one window from now.
    Opened(u64),
    /// The request joined the already-open batch.
    Joined,
    /// The request filled the batch to `max_batch`: it closes
    /// immediately, and its pending deadline will find nothing to close.
    Full(ClosedBatch),
}

/// A batch ready for service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClosedBatch {
    /// Monotonic batch id (also the deadline-event key).
    pub id: u64,
    /// Request ids in arrival order.
    pub members: Vec<u32>,
}

/// The accumulator for the single open batch.
#[derive(Debug, Default)]
pub(crate) struct Batcher {
    max_batch: usize,
    open: Option<ClosedBatch>,
    next_id: u64,
}

impl Batcher {
    /// A batcher closing batches at `max_batch` members.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero — a zero-member batch can never
    /// close.
    pub(crate) fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        Batcher {
            max_batch,
            ..Batcher::default()
        }
    }

    /// Add a request to the open batch, opening one if needed.
    pub(crate) fn add(&mut self, request: u32) -> BatchAdd {
        match &mut self.open {
            None => {
                let id = self.next_id;
                self.next_id += 1;
                self.open = Some(ClosedBatch {
                    id,
                    members: vec![request],
                });
                if self.max_batch == 1 {
                    return BatchAdd::Full(self.open.take().expect("just opened"));
                }
                BatchAdd::Opened(id)
            }
            Some(batch) => {
                batch.members.push(request);
                if batch.members.len() >= self.max_batch {
                    BatchAdd::Full(self.open.take().expect("open and full"))
                } else {
                    BatchAdd::Joined
                }
            }
        }
    }

    /// Close the open batch if it is the one the deadline `id` was
    /// scheduled for. A stale deadline (batch already closed by fill)
    /// returns `None` and changes nothing.
    pub(crate) fn close_deadline(&mut self, id: u64) -> Option<ClosedBatch> {
        if self.open.as_ref().is_some_and(|b| b.id == id) {
            self.open.take()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_close_immediately_and_deadlines_close_partials() {
        let mut b = Batcher::new(3);
        assert_eq!(b.add(0), BatchAdd::Opened(0));
        assert_eq!(b.add(1), BatchAdd::Joined);
        let BatchAdd::Full(full) = b.add(2) else {
            panic!("third member fills the batch")
        };
        assert_eq!(full.members, vec![0, 1, 2]);
        // The stale deadline for batch 0 must be a no-op.
        assert_eq!(b.close_deadline(0), None);

        assert_eq!(b.add(3), BatchAdd::Opened(1));
        let partial = b.close_deadline(1).expect("deadline closes open batch");
        assert_eq!(partial.members, vec![3]);
    }

    #[test]
    fn max_batch_one_never_waits() {
        let mut b = Batcher::new(1);
        let BatchAdd::Full(f) = b.add(7) else {
            panic!("size-1 batches close on arrival")
        };
        assert_eq!(f.members, vec![7]);
        assert_eq!(b.open, None);
    }
}
