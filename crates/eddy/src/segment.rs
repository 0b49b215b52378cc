//! Thresholding and connected-component labeling.
//!
//! Eddy cores are the connected regions (4-neighborhood, periodic in x)
//! where `W < threshold`. Labeling uses a union-find over the mask.

use ivis_ocean::okubo_weiss::eddy_threshold;
use ivis_ocean::Field2D;

/// A disjoint-set (union-find) with path compression and union by size.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`. Returns the new root.
    pub(crate) fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        big
    }

    /// Whether `a` and `b` share a set.
    #[cfg(test)]
    fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// A labeled segmentation: `labels[j*nx+i]` is `Some(k)` for component `k`
/// (0-based, dense) or `None` outside the mask.
#[derive(Debug, Clone)]
pub struct Segmentation {
    /// Grid width.
    pub nx: usize,
    /// Grid height.
    pub ny: usize,
    /// Per-cell component label.
    pub labels: Vec<Option<u32>>,
    /// Number of components.
    pub num_components: usize,
}

impl Segmentation {
    /// Label of cell `(i, j)`.
    pub(crate) fn label(&self, i: usize, j: usize) -> Option<u32> {
        self.labels[j * self.nx + i]
    }

    /// Cells per component.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components];
        for l in self.labels.iter().flatten() {
            sizes[*l as usize] += 1;
        }
        sizes
    }
}

/// Label connected components of `mask` (true = in a core), 4-neighborhood,
/// periodic in x, walls in y.
pub fn label_components(nx: usize, ny: usize, mask: &[bool]) -> Segmentation {
    assert_eq!(mask.len(), nx * ny, "mask size mismatch");
    let mut uf = UnionFind::new(nx * ny);
    let idx = |i: usize, j: usize| j * nx + i;
    for j in 0..ny {
        for i in 0..nx {
            if !mask[idx(i, j)] {
                continue;
            }
            let right = (i + 1) % nx;
            if mask[idx(right, j)] {
                uf.union(idx(i, j), idx(right, j));
            }
            if j + 1 < ny && mask[idx(i, j + 1)] {
                uf.union(idx(i, j), idx(i, j + 1));
            }
        }
    }
    // Dense relabeling.
    let mut labels = vec![None; nx * ny];
    let mut remap: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
    for j in 0..ny {
        for i in 0..nx {
            if mask[idx(i, j)] {
                let root = uf.find(idx(i, j));
                let next = remap.len() as u32;
                let label = *remap.entry(root).or_insert(next);
                labels[idx(i, j)] = Some(label);
            }
        }
    }
    Segmentation {
        nx,
        ny,
        labels,
        num_components: remap.len(),
    }
}

/// Segment eddy cores of an Okubo-Weiss field at the Woodring threshold
/// `W < −k·σ_W`, discarding components smaller than `min_cells`.
pub fn segment_eddies(w: &Field2D, k: f64, min_cells: usize) -> Segmentation {
    let thr = eddy_threshold(w, k);
    let mask: Vec<bool> = w.data().iter().map(|&x| x < thr).collect();
    let seg = label_components(w.nx(), w.ny(), &mask);
    if min_cells <= 1 {
        return seg;
    }
    // Drop small components and relabel densely.
    let sizes = seg.component_sizes();
    let mut remap = vec![None; seg.num_components];
    let mut next = 0u32;
    for (c, &s) in sizes.iter().enumerate() {
        if s >= min_cells {
            remap[c] = Some(next);
            next += 1;
        }
    }
    let labels = seg
        .labels
        .iter()
        .map(|l| l.and_then(|c| remap[c as usize]))
        .collect();
    Segmentation {
        nx: seg.nx,
        ny: seg.ny,
        labels,
        num_components: next as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.connected(0, 1));
        uf.union(0, 1);
        uf.union(3, 4);
        assert!(uf.connected(0, 1));
        assert!(uf.connected(4, 3));
        assert!(!uf.connected(1, 3));
        uf.union(1, 3);
        assert!(uf.connected(0, 4));
    }

    #[test]
    fn two_separate_blobs() {
        // 6x4 grid with blobs at left and right (not touching).
        let nx = 6;
        let ny = 4;
        let mut mask = vec![false; nx * ny];
        mask[nx + 1] = true; // (1,1)
        mask[nx + 2] = true; // (2,1)
        mask[2 * nx + 4] = true; // (4,2)
        let seg = label_components(nx, ny, &mask);
        assert_eq!(seg.num_components, 2);
        assert_eq!(seg.label(1, 1), seg.label(2, 1));
        assert_ne!(seg.label(1, 1), seg.label(4, 2));
        assert_eq!(seg.label(0, 0), None);
        assert_eq!(seg.component_sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn periodic_wrap_joins_across_boundary() {
        let nx = 6;
        let ny = 3;
        let mut mask = vec![false; nx * ny];
        mask[nx] = true; // (0,1)
        mask[nx + nx - 1] = true; // (5,1) — adjacent through the wrap
        let seg = label_components(nx, ny, &mask);
        assert_eq!(seg.num_components, 1);
        assert_eq!(seg.label(0, 1), seg.label(5, 1));
    }

    #[test]
    fn diagonals_do_not_connect() {
        let nx = 4;
        let ny = 4;
        let mut mask = vec![false; nx * ny];
        mask[0] = true; // (0,0)
        mask[nx + 1] = true; // (1,1) diagonal neighbor
        let seg = label_components(nx, ny, &mask);
        assert_eq!(seg.num_components, 2);
    }

    #[test]
    fn empty_mask_has_no_components() {
        let seg = label_components(5, 5, &[false; 25]);
        assert_eq!(seg.num_components, 0);
    }

    #[test]
    fn full_mask_is_one_component() {
        let seg = label_components(5, 5, &[true; 25]);
        assert_eq!(seg.num_components, 1);
        assert_eq!(seg.component_sizes(), vec![25]);
    }

    #[test]
    fn segment_eddies_finds_gaussian_core() {
        // Synthetic W: negative well in the middle, positive ring.
        let w = Field2D::from_fn(32, 32, |i, j| {
            let dx = i as f64 - 16.0;
            let dy = j as f64 - 16.0;
            let r2 = dx * dx + dy * dy;
            -2.0 * (-r2 / 18.0).exp() + 0.5 * (-((r2.sqrt() - 8.0).powi(2)) / 8.0).exp()
        });
        let seg = segment_eddies(&w, 0.2, 2);
        assert_eq!(seg.num_components, 1, "one core expected");
        assert!(seg.label(16, 16).is_some(), "center is in the core");
        assert!(seg.label(0, 0).is_none());
    }

    #[test]
    fn min_cells_filters_specks() {
        let nx = 8;
        let ny = 8;
        let mut mask = vec![false; nx * ny];
        // One 4-cell blob and one single-cell speck.
        for (i, j) in [(2, 2), (3, 2), (2, 3), (3, 3)] {
            mask[j * nx + i] = true;
        }
        mask[6 * nx + 6] = true;
        // Build a field whose threshold keeps exactly these cells.
        let w = Field2D::from_fn(nx, ny, |i, j| if mask[j * nx + i] { -10.0 } else { 0.1 });
        let seg_all = segment_eddies(&w, 0.2, 1);
        let seg_filtered = segment_eddies(&w, 0.2, 2);
        assert_eq!(seg_all.num_components, 2);
        assert_eq!(seg_filtered.num_components, 1);
        assert_eq!(seg_filtered.label(6, 6), None);
    }

    #[test]
    #[should_panic(expected = "mask size mismatch")]
    fn wrong_mask_size_rejected() {
        let _ = label_components(4, 4, &[true; 3]);
    }
}
