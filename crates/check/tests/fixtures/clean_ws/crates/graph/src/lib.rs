// A clean fixture: every would-be finding is absent, inside
// #[cfg(test)], inside a string or comment, or carries a justified
// exception.

/// Seeded construction is deterministic.
pub fn seeded_total(seed: u64, n: usize) -> u64 {
    let mut r = StdRng::seed_from_u64(seed);
    let mut total = 0;
    for _ in 0..n {
        total += r.gen::<u64>() % 7;
    }
    total
}

/// The only panic site carries the compiler-checked exception.
pub fn checked(x: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "callers pass Some by contract")]
    let v = x.expect("contract");
    v
}

pub fn strings_and_comments() {
    let _s = ".unwrap() and panic!( and from_entropy(";
    // .expect( here is commentary
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
        if v.is_none() {
            panic!("fine in tests");
        }
    }
}
