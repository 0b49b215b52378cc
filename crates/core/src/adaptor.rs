//! The Catalyst-style adaptor.
//!
//! ParaView Catalyst couples a simulation to in-situ visualization through
//! *adaptors* that "seamlessly copy simulation data structures to ParaView
//! data structures" (paper §IV-B) — incurring extra memory traffic but
//! avoiding the trip to storage. [`CatalystAdaptor`] does the same here: it
//! interpolates the solver's staggered velocities to cell centers, derives
//! the Okubo-Weiss field, and hands a self-contained [`VizSnapshot`] to the
//! rendering side, while accounting for the bytes it copied.

use ivis_ocean::okubo_weiss::{okubo_weiss, okubo_weiss_into};
use ivis_ocean::{Field2D, ShallowWaterModel};

/// A visualization-ready snapshot, decoupled from the solver's internal
/// (staggered) representation.
#[derive(Debug, Clone)]
pub struct VizSnapshot {
    /// Solver step at capture.
    pub timestep: u64,
    /// Simulated time at capture, hours.
    pub sim_hours: f64,
    /// Surface elevation at cell centers.
    pub ssh: Field2D,
    /// Zonal velocity at cell centers.
    pub uc: Field2D,
    /// Meridional velocity at cell centers.
    pub vc: Field2D,
    /// The Okubo-Weiss field.
    pub okubo_weiss: Field2D,
}

/// The adaptor.
#[derive(Debug, Clone, Default)]
pub struct CatalystAdaptor;

impl CatalystAdaptor {
    /// A fresh adaptor.
    pub fn new() -> Self {
        CatalystAdaptor
    }

    /// Capture a snapshot of the model. This performs the C-grid →
    /// cell-center interpolation, computes Okubo-Weiss, and deep-copies the
    /// fields the visualization needs.
    pub fn adapt(&mut self, model: &ShallowWaterModel) -> VizSnapshot {
        let (uc, vc) = model.centered_velocities();
        let w = okubo_weiss(model.grid(), &uc, &vc);
        let ssh = model.state().h.clone();
        VizSnapshot {
            timestep: model.steps(),
            sim_hours: model.time() / 3_600.0,
            ssh,
            uc,
            vc,
            okubo_weiss: w,
        }
    }

    /// [`CatalystAdaptor::adapt`] into a recycled snapshot — same values,
    /// but the four fields are written in place, so
    /// pipelines that return snapshots to the producer adapt without
    /// allocating.
    ///
    /// # Panics
    /// Panics if the snapshot's fields do not match the model's grid shape.
    pub fn adapt_into(&mut self, model: &ShallowWaterModel, snap: &mut VizSnapshot) {
        model.centered_velocities_into(&mut snap.uc, &mut snap.vc);
        okubo_weiss_into(model.grid(), &snap.uc, &snap.vc, &mut snap.okubo_weiss);
        snap.ssh.data_mut().copy_from_slice(model.state().h.data());
        snap.timestep = model.steps();
        snap.sim_hours = model.time() / 3_600.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_ocean::grid::Grid;
    use ivis_ocean::shallow_water::SwParams;
    use ivis_ocean::vortex::{seed_vortex, Vortex};

    fn model_with_eddy() -> ShallowWaterModel {
        let grid = Grid::channel(32, 24, 60_000.0);
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        let (lx, ly) = m.grid().extent();
        seed_vortex(
            &mut m,
            &Vortex {
                x: lx / 2.0,
                y: ly / 2.0,
                radius: 150_000.0,
                amplitude: 1.0,
            },
        );
        m
    }

    #[test]
    fn snapshot_carries_derived_fields() {
        let mut m = model_with_eddy();
        m.run(4);
        let mut adaptor = CatalystAdaptor::new();
        let snap = adaptor.adapt(&m);
        assert_eq!(snap.timestep, 4);
        assert!(snap.sim_hours > 0.0);
        assert_eq!(snap.okubo_weiss.nx(), m.grid().nx);
        // Eddy core: the W field must have negative values.
        assert!(snap.okubo_weiss.min() < 0.0);
        assert_eq!(snap.ssh.data(), m.state().h.data());
    }

    #[test]
    fn adapt_into_matches_adapt_exactly() {
        let mut m = model_with_eddy();
        m.run(4);
        let mut fresh_adaptor = CatalystAdaptor::new();
        let fresh = fresh_adaptor.adapt(&m);

        // Recycle a snapshot taken at a different model state: adapt_into
        // must fully overwrite it and land bit-identical to adapt().
        let mut stale_model = model_with_eddy();
        stale_model.run(1);
        let mut adaptor = CatalystAdaptor::new();
        let mut snap = adaptor.adapt(&stale_model);
        adaptor.adapt_into(&m, &mut snap);

        assert_eq!(snap.timestep, fresh.timestep);
        assert_eq!(snap.sim_hours, fresh.sim_hours);
        assert_eq!(snap.ssh.data(), fresh.ssh.data());
        assert_eq!(snap.uc.data(), fresh.uc.data());
        assert_eq!(snap.vc.data(), fresh.vc.data());
        assert_eq!(snap.okubo_weiss.data(), fresh.okubo_weiss.data());
    }

    #[test]
    fn snapshot_is_independent_of_model() {
        // Mutating the model after adapt must not change the snapshot.
        let mut m = model_with_eddy();
        let mut adaptor = CatalystAdaptor::new();
        let snap = adaptor.adapt(&m);
        let before = snap.ssh.data().to_vec();
        m.run(10);
        assert_eq!(snap.ssh.data(), &before[..]);
    }
}
