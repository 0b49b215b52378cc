//! # ivis-storage — the Lustre-like storage substrate
//!
//! The paper's cluster writes to a private Lustre rack: one master node, two
//! metadata servers (MDS), two object storage servers (OSS), 7.7 TB of
//! capacity and ≈160 MB/s of aggregate bandwidth. This crate models that
//! subsystem end to end:
//!
//! * [`layout`] — Lustre-style striping: files are striped over OSTs in
//!   fixed-size stripes.
//! * [`pfs`] — the parallel filesystem: a namespace with capacity
//!   accounting, MDS open/create costs (FCFS queueing) and OSS data
//!   transfers (processor-sharing bandwidth), returning exact completion
//!   times for every operation.
//! * `power` — the rack's power model: 2273 W idle → 2302 W at full
//!   bandwidth (the paper's measured, nearly-flat curve) with a
//!   Raritan-style meter attached.
//! * [`ncdf`] — *ncdf-lite*, a real self-describing array file format
//!   (magic, dimensions, attributes, typed variables) standing in for
//!   netCDF; its encoded size drives the S_io term of the paper's model.
//! * [`burst_buffer`] — an NVRAM tier in front of the filesystem: writes
//!   complete at NVRAM speed while it has room and drain to Lustre behind.

pub mod burst_buffer;
pub mod layout;
pub mod ncdf;
pub mod pfs;
pub(crate) mod power;

pub use pfs::{ParallelFileSystem, PfsError};
pub use power::StoragePowerModel;
