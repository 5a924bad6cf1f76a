//! End-to-end serving benchmark of the G-Grid server. See README.md.

pub mod check;
pub mod host;
pub mod layers;
pub mod run;
pub mod spec;
