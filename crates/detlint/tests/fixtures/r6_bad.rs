// Fixture: `pub` items that only tests read (three flagged lines).

pub fn only_tests_read_me() -> u32 {
    1
}

pub const UNREAD_LIMIT: usize = 8;

pub const fn unread_const_fn() -> u8 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_them() {
        assert_eq!(super::only_tests_read_me(), 1);
        assert_eq!(super::UNREAD_LIMIT + usize::from(super::unread_const_fn()), 8);
    }
}
