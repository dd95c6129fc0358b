//! HL005 fixture: a crate root that no longer carries
//! `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`.

#![warn(missing_docs)]
#![allow(unsafe_code)]

pub mod image;
