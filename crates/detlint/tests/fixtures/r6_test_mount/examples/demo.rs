fn main() {
    let _ = fixture::entry();
}
