//! Fixture: a crate root carrying the full workspace lint header.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

fn noop() {}
