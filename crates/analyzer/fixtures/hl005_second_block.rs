//! HL005 fixture: an allowlisted file whose audited site is followed by a
//! second `unsafe` block — the one expected finding.

#![deny(unsafe_code)]

pub fn first(v: &[u8]) -> u8 {
    // SAFETY: callers pass a non-empty slice.
    #[allow(unsafe_code)]
    unsafe {
        *v.as_ptr()
    }
}

pub fn second(v: &[u8]) -> u8 {
    // SAFETY: a justified comment does not make a second site allowed.
    #[allow(unsafe_code)]
    unsafe {
        *v.as_ptr().add(1)
    }
}
