//! The eDonkey *tag* system: typed, named metadata attached to files and
//! search results (paper §2.1 — files "are characterised by at least two
//! metadata: name and size").
//!
//! A tag is a `(name, value)` pair. Names are either a single well-known
//! byte (the compact form every client uses for standard metadata) or a
//! free-form string. Values are strings or 32-bit integers — the two types
//! the directory-server protocol actually exchanges.
//!
//! Wire format (little-endian throughout, as in the real protocol):
//!
//! ```text
//! tag      := type:u8 name value
//! type     := 0x02 (string) | 0x03 (u32)
//! name     := namelen:u16 namebytes        (namelen == 1 => special byte)
//! value    := len:u16 bytes                (string)
//!           | v:u32                        (integer)
//! ```

use crate::error::{DecodeError, Result};
use crate::wire::{Reader, Writer};
use std::fmt;

/// Well-known single-byte tag names (subset used by directory servers).
pub mod special {
    /// File name (string).
    pub const FILENAME: u8 = 0x01;
    /// File size in bytes (u32).
    pub const FILESIZE: u8 = 0x02;
    /// File type, e.g. "Audio" (string).
    pub const FILETYPE: u8 = 0x03;
    /// File format / extension (string).
    pub const FILEFORMAT: u8 = 0x04;
    /// Version (u32).
    pub const VERSION: u8 = 0x11;
    /// Server port (u32).
    pub const PORT: u8 = 0x0f;
    /// Number of sources the server knows for a result (u32).
    pub const SOURCES: u8 = 0x15;
    /// Number of complete sources (u32).
    pub const COMPLETE_SOURCES: u8 = 0x30;
    /// Media length in seconds (u32).
    pub const MEDIA_LENGTH: u8 = 0xd3;
    /// Media bitrate (u32).
    pub const MEDIA_BITRATE: u8 = 0xd4;
}

/// Tag value type discriminators on the wire.
const TAGTYPE_STRING: u8 = 0x02;
const TAGTYPE_U32: u8 = 0x03;

/// A tag name: one well-known byte, or a free-form string.
///
/// Note the protocol-inherited ambiguity: on the wire a name of length 1
/// *is* the compact special form, so a `Named` name of a single byte
/// decodes back as `Special`. Free-form names must therefore be at least
/// two bytes; [`Tag::named`] enforces this.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TagName {
    /// Compact single-byte name from [`special`].
    Special(u8),
    /// Arbitrary string name (two bytes or more).
    Named(String),
}

impl TagName {
    fn encode(&self, w: &mut Writer) {
        match self {
            TagName::Special(b) => {
                w.u16(1);
                w.u8(*b);
            }
            TagName::Named(s) => {
                w.u16(s.len() as u16);
                w.bytes(s.as_bytes());
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self> {
        let len = r.u16()? as usize;
        if len == 0 {
            return Err(DecodeError::Malformed("empty tag name"));
        }
        if len == 1 {
            Ok(TagName::Special(r.u8()?))
        } else {
            let bytes = r.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| DecodeError::Malformed("tag name not utf-8"))?;
            Ok(TagName::Named(s.to_owned()))
        }
    }

    /// The name's fixed rendering, when it has one: every well-known
    /// special byte maps to a static string identical to its [`std::fmt::Display`]
    /// output. `None` for unknown special bytes and arbitrary named tags
    /// (those need the formatting machinery); hot paths rendering tag
    /// names at volume use this to skip `fmt` entirely.
    pub fn static_name(&self) -> Option<&'static str> {
        match self {
            TagName::Special(b) => match *b {
                special::FILENAME => Some("filename"),
                special::FILESIZE => Some("filesize"),
                special::FILETYPE => Some("filetype"),
                special::FILEFORMAT => Some("fileformat"),
                special::SOURCES => Some("sources"),
                special::COMPLETE_SOURCES => Some("complete_sources"),
                special::MEDIA_LENGTH => Some("media_length"),
                special::MEDIA_BITRATE => Some("media_bitrate"),
                special::VERSION => Some("version"),
                special::PORT => Some("port"),
                _ => None,
            },
            TagName::Named(_) => None,
        }
    }
}

impl fmt::Display for TagName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagName::Special(b) => match *b {
                special::FILENAME => write!(f, "filename"),
                special::FILESIZE => write!(f, "filesize"),
                special::FILETYPE => write!(f, "filetype"),
                special::FILEFORMAT => write!(f, "fileformat"),
                special::SOURCES => write!(f, "sources"),
                special::COMPLETE_SOURCES => write!(f, "complete_sources"),
                special::MEDIA_LENGTH => write!(f, "media_length"),
                special::MEDIA_BITRATE => write!(f, "media_bitrate"),
                special::VERSION => write!(f, "version"),
                special::PORT => write!(f, "port"),
                other => write!(f, "special:{other:#04x}"),
            },
            TagName::Named(s) => write!(f, "{s}"),
        }
    }
}

/// A tag value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TagValue {
    /// UTF-8 string value.
    Str(String),
    /// 32-bit unsigned integer value.
    U32(u32),
}

/// A complete metadata tag.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Tag {
    /// Tag name.
    pub name: TagName,
    /// Tag value.
    pub value: TagValue,
}

impl Tag {
    /// Convenience constructor: string tag with a special name.
    pub fn str(name: u8, value: impl Into<String>) -> Self {
        Tag {
            name: TagName::Special(name),
            value: TagValue::Str(value.into()),
        }
    }

    /// Convenience constructor: integer tag with a special name.
    pub fn u32(name: u8, value: u32) -> Self {
        Tag {
            name: TagName::Special(name),
            value: TagValue::U32(value),
        }
    }

    /// Convenience constructor: string tag with a free-form name.
    ///
    /// Panics if `name` is shorter than two bytes (single-byte names are
    /// reserved for the compact [`special`] form; see [`TagName`]).
    pub fn named(name: impl Into<String>, value: impl Into<String>) -> Self {
        let name = name.into();
        assert!(
            name.len() >= 2,
            "free-form tag names must be >= 2 bytes (got {name:?})"
        );
        Tag {
            name: TagName::Named(name),
            value: TagValue::Str(value.into()),
        }
    }

    /// Serialises this tag.
    pub fn encode(&self, w: &mut Writer) {
        match &self.value {
            TagValue::Str(s) => {
                w.u8(TAGTYPE_STRING);
                self.name.encode(w);
                w.u16(s.len() as u16);
                w.bytes(s.as_bytes());
            }
            TagValue::U32(v) => {
                w.u8(TAGTYPE_U32);
                self.name.encode(w);
                w.u32(*v);
            }
        }
    }

    /// Parses one tag from `r`.
    pub fn decode(r: &mut Reader) -> Result<Self> {
        let ty = r.u8()?;
        let name = TagName::decode(r)?;
        let value = match ty {
            TAGTYPE_STRING => {
                let len = r.u16()? as usize;
                let bytes = r.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| DecodeError::Malformed("tag string not utf-8"))?;
                TagValue::Str(s.to_owned())
            }
            TAGTYPE_U32 => TagValue::U32(r.u32()?),
            other => return Err(DecodeError::UnknownTagType(other)),
        };
        Ok(Tag { name, value })
    }
}

/// A list of tags as carried by file entries; helpers for the fields every
/// file must have (paper §2.1: name and size at minimum).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TagList(pub Vec<Tag>);

impl TagList {
    /// Serialises as `count:u32` followed by the tags.
    pub fn encode(&self, w: &mut Writer) {
        w.u32(self.0.len() as u32);
        for t in &self.0 {
            t.encode(w);
        }
    }

    /// Parses a `count:u32`-prefixed tag list, rejecting absurd counts
    /// before allocating (structural-validation friendliness).
    pub fn decode(r: &mut Reader) -> Result<Self> {
        let n = r.u32()? as usize;
        // Each tag occupies at least 6 bytes on the wire; a count that
        // cannot fit in the remaining payload is malformed, not an OOM.
        if n.saturating_mul(6) > r.remaining() {
            return Err(DecodeError::Malformed("tag count exceeds payload"));
        }
        let mut tags = Vec::with_capacity(n);
        for _ in 0..n {
            tags.push(Tag::decode(r)?);
        }
        Ok(TagList(tags))
    }

    /// Looks up a tag by special name.
    pub fn get(&self, name: u8) -> Option<&TagValue> {
        self.0.iter().find_map(|t| match &t.name {
            TagName::Special(b) if *b == name => Some(&t.value),
            _ => None,
        })
    }

    /// File name, if present.
    pub fn filename(&self) -> Option<&str> {
        match self.get(special::FILENAME) {
            Some(TagValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// File size in bytes, if present.
    pub fn filesize(&self) -> Option<u32> {
        match self.get(special::FILESIZE) {
            Some(TagValue::U32(v)) => Some(*v),
            _ => None,
        }
    }

    /// File type string, if present.
    pub fn filetype(&self) -> Option<&str> {
        match self.get(special::FILETYPE) {
            Some(TagValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(tag: &Tag) -> Tag {
        let mut w = Writer::new();
        tag.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let got = Tag::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes after tag");
        got
    }

    #[test]
    fn string_tag_round_trip() {
        let t = Tag::str(special::FILENAME, "some file (2004).avi");
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn u32_tag_round_trip() {
        let t = Tag::u32(special::FILESIZE, 734_003_200);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn named_tag_round_trip() {
        let t = Tag::named("codec", "xvid");
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn unknown_tag_type_rejected() {
        let mut w = Writer::new();
        w.u8(0x99); // bogus type
        w.u16(1);
        w.u8(special::FILENAME);
        let buf = w.into_bytes();
        let err = Tag::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(matches!(err, DecodeError::UnknownTagType(0x99)));
    }

    #[test]
    fn empty_name_rejected() {
        let mut w = Writer::new();
        w.u8(TAGTYPE_U32);
        w.u16(0); // empty name
        w.u32(5);
        let err = Tag::decode(&mut Reader::new(&w.into_bytes())).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(_)));
    }

    #[test]
    fn truncated_tag_rejected() {
        let t = Tag::str(special::FILENAME, "abcdef");
        let mut w = Writer::new();
        t.encode(&mut w);
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let err = Tag::decode(&mut Reader::new(&buf[..cut]));
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn taglist_lookup() {
        let tl = TagList(vec![
            Tag::str(special::FILENAME, "track.mp3"),
            Tag::u32(special::FILESIZE, 4_321_000),
            Tag::str(special::FILETYPE, "Audio"),
            Tag::u32(special::SOURCES, 12),
        ]);
        assert_eq!(tl.filename(), Some("track.mp3"));
        assert_eq!(tl.filesize(), Some(4_321_000));
        assert_eq!(tl.filetype(), Some("Audio"));
        assert!(tl.get(special::MEDIA_BITRATE).is_none());
    }

    #[test]
    fn taglist_round_trip() {
        let tl = TagList(vec![
            Tag::str(special::FILENAME, "a"),
            Tag::u32(special::FILESIZE, 1),
            Tag::named("xx", "y"),
        ]);
        let mut w = Writer::new();
        tl.encode(&mut w);
        let buf = w.into_bytes();
        let got = TagList::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(got, tl);
    }

    #[test]
    fn absurd_tag_count_rejected_without_alloc() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // claims 4G tags in an empty payload
        let err = TagList::decode(&mut Reader::new(&w.into_bytes())).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(_)));
    }

    #[test]
    fn wrong_typed_lookup_is_none() {
        // A string stored under FILESIZE must not be returned by the u32
        // accessor.
        let tl = TagList(vec![Tag::str(special::FILESIZE, "oops")]);
        assert_eq!(tl.filesize(), None);
    }
}
