//! A failing case names its test, its case index and its input, whether
//! it fails a `prop_assert!` or its body panics.

use proptest::prelude::*;

proptest! {
    // No `#[test]`: each fails on purpose, so the tests below call them.
    fn fails_an_assertion(x in 5u32..6, word in Just("seven")) {
        prop_assert!(x > 100, "{} is small", x);
        prop_assert_eq!(word, "seven");
    }

    fn panics_in_its_body(v in proptest::collection::vec(7u8..8, 2)) {
        assert!(v.is_empty(), "the body panicked");
    }
}

/// The message `property` fails with.
fn message_of(property: fn()) -> String {
    let panic = std::panic::catch_unwind(property).expect_err("the property fails");
    panic.downcast_ref::<String>().cloned().expect("a message payload")
}

#[test]
fn a_failed_assertion_names_the_case_and_its_input() {
    let m = message_of(fails_an_assertion);
    assert!(m.starts_with("proptest reports::fails_an_assertion failed at case 0/32"), "{m}");
    assert!(m.contains("\n  x = 5\n  word = \"seven\"\n"), "{m}");
    assert!(m.ends_with("5 is small"), "{m}");
}

#[test]
fn a_panicking_case_keeps_its_message_and_names_its_input() {
    let m = message_of(panics_in_its_body);
    assert!(m.starts_with("the body panicked\n"), "{m}");
    assert!(m.contains("proptest reports::panics_in_its_body panicked at case 0/32"), "{m}");
    assert!(m.ends_with("\n  v = [7, 7]"), "{m}");
}
