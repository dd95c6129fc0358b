//! HL005 fixture: one audited `unsafe` site, plus bait the pass must ignore
//! (the word in strings, comments and lint names, and test code).

#![deny(unsafe_code)]

fn fast_path_available() -> bool {
    true
}

#[target_feature(enable = "sse4.1")]
fn fast(x: &mut u32) {
    *x += 1;
}

pub fn dispatch(x: &mut u32) {
    if fast_path_available() {
        // SAFETY: `fast` needs sse4.1, which `fast_path_available` checked.
        #[allow(unsafe_code)]
        unsafe {
            fast(x)
        };
    }
    let _bait = "an unsafe string";
}

#[cfg(test)]
mod tests {
    #[test]
    fn unsafe_in_tests_is_exempt() {
        let v = [1u8];
        assert_eq!(unsafe { *v.as_ptr() }, 1);
    }
}
