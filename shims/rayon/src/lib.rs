//! The one `rayon` item anything names: [`set_num_threads`], which does
//! nothing.
//!
//! No workspace crate depends on this crate. The benchmark package
//! (`benchmark/`) calls `rayon::set_num_threads` before it runs, so the
//! name stays until that call goes.

/// Does nothing. Parallelism is the native frame loop's depth
/// (`NativePlan::depth`): the loop spawns `depth − 1` helper threads of
/// its own, and every other path runs on the calling thread. No thread
/// count or environment variable changes what runs, or on how many
/// threads.
pub fn set_num_threads(_n: usize) {}
