//! Umbrella crate for workspace-level integration tests and examples; it
//! exports nothing.
//!
//! The real library surface lives in the `pgdesign` facade crate and the
//! per-component crates (`pgdesign-catalog`, `pgdesign-optimizer`, ...).

#![forbid(unsafe_code)]
