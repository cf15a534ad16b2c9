//! Test-only helpers: their `pub` items are test code, never flagged.

mod nested;

pub fn helper() -> u32 {
    super::only_test_modules_read_me()
}
