//! Fixture: a crate root missing `#![warn(missing_docs)]`.

#![forbid(unsafe_code)]

fn noop() {}
