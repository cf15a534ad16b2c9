//! Fixture: module files that only `#[cfg(test)]` code mounts are test
//! code, so their reads keep no `pub` item alive (one flagged line).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
pub(crate) mod testutil;

/// Read by the example.
pub fn entry() -> u32 {
    1
}

/// Read only by the test-mounted module.
pub fn only_test_modules_read_me() -> u32 {
    2
}
