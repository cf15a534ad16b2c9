// Fixture: every `pub` item has a non-test reader, is restricted, or
// carries a justified pragma.

pub fn entry() -> u32 {
    read_in_this_file() + LIMIT as u32
}

pub fn read_in_this_file() -> u32 {
    helper()
}

pub const LIMIT: usize = 8;

pub(crate) fn helper() -> u32 {
    1
}

// detlint::allow(unread-pub, reason = "fixture: API kept for a reader to come")
pub fn kept_for_later() {}
