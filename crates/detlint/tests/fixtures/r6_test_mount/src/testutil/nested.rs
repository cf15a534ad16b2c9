//! Mounted by a test-only module, so test code too.

pub fn nested_helper() -> u32 {
    super::helper()
}
