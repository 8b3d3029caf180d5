//! Newline-aligned chunking of an NDJSON byte stream — the input side of
//! the parallel ingest front end.
//!
//! A [`ChunkReader`] pulls large blocks from any [`Read`] source and cuts
//! them at line boundaries, so each emitted [`RawChunk`] holds only whole
//! lines and parser threads can work on chunks independently without
//! seeing half a record. The cut protocol is the classic byte-range
//! stitch:
//!
//! * a chunk ends at the **last** newline inside the block — the partial
//!   line after it is carried into the next chunk, so a line split by
//!   the block boundary is parsed exactly once, by exactly one chunk;
//! * a line longer than the block size keeps the reader filling until
//!   its newline arrives — the chunk grows past the target rather than
//!   splitting the line;
//! * at end of input the carry is flushed as a final chunk even without
//!   a trailing newline — the last line of an unterminated file is never
//!   dropped;
//! * `\r\n` endings pass through untouched: the splitter cuts at `\n`
//!   only, and the per-line trim (same rule as [`EventReader`]) strips
//!   the `\r` during parsing, never during splitting.
//!
//! Chunks carry a dense sequence number and the absolute (1-based) line
//! number of their first line — counted with the dispatched wide
//! scanner ([`crate::scan::Scanner::count_byte`], resolved once per
//! chunker) — so downstream consumers can re-sequence chunks
//! parsed out of order and report errors with exact line numbers without
//! any shared state between parser threads.
//!
//! [`EventReader`]: crate::ndjson::EventReader

use crate::scan::{scanner, Scanner};
use std::io::Read;

/// Default chunk target: large enough to amortize syscall and routing
/// overhead, small enough that a handful of chunks per reader keep every
/// parser busy on traces of a few megabytes.
pub const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// A run of whole input lines, cut on newline boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawChunk {
    /// Dense chunk sequence number, starting at 0 — the re-sequencing
    /// key for consumers that parse chunks out of order.
    pub seq: u64,
    /// Absolute 1-based line number of the first line in `bytes`.
    pub first_lineno: u64,
    /// The chunk's bytes: whole lines, each ending in `\n` except
    /// (possibly) the final line of the stream.
    pub bytes: Vec<u8>,
}

impl RawChunk {
    /// Iterates the chunk's lines as `(absolute_lineno, line)` pairs.
    /// Lines exclude the terminating `\n` but keep a trailing `\r` —
    /// trimming is the parser's job, matching the serial reader.
    pub fn lines(&self) -> ChunkLines<'_> {
        ChunkLines {
            bytes: &self.bytes,
            pos: 0,
            lineno: self.first_lineno,
            scan: scanner(),
        }
    }
}

/// Iterator over the lines of a [`RawChunk`].
pub struct ChunkLines<'a> {
    bytes: &'a [u8],
    pos: usize,
    lineno: u64,
    /// Resolved once at construction: the line loop is the hottest scan
    /// consumer, so it calls straight through the kernel table.
    scan: &'static Scanner,
}

impl std::fmt::Debug for ChunkLines<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkLines")
            .field("pos", &self.pos)
            .field("lineno", &self.lineno)
            .field("isa", &self.scan.isa())
            .finish_non_exhaustive()
    }
}

impl<'a> Iterator for ChunkLines<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let lineno = self.lineno;
        self.lineno += 1;
        let rest = &self.bytes[self.pos..];
        match self.scan.find_byte(rest, b'\n') {
            Some(p) => {
                self.pos += p + 1;
                Some((lineno, &rest[..p]))
            }
            None => {
                self.pos = self.bytes.len();
                Some((lineno, rest))
            }
        }
    }
}

/// Splits a byte stream into newline-aligned [`RawChunk`]s of roughly
/// `target` bytes each.
#[derive(Debug)]
pub struct ChunkReader<R> {
    inner: R,
    target: usize,
    /// Partial line carried over from the previous block.
    carry: Vec<u8>,
    next_seq: u64,
    next_lineno: u64,
    done: bool,
    /// Kernel table resolved once at construction (dispatch-once).
    scan: &'static Scanner,
}

impl<R: Read> ChunkReader<R> {
    /// Wraps `inner`, cutting chunks of roughly `target` bytes (at least
    /// one byte; chunks can exceed the target by up to one line).
    pub fn new(inner: R, target: usize) -> Self {
        ChunkReader {
            inner,
            target: target.max(1),
            carry: Vec::new(),
            next_seq: 0,
            next_lineno: 1,
            done: false,
            scan: scanner(),
        }
    }

    /// Pulls the next newline-aligned chunk, or `None` at end of input.
    pub fn next_chunk(&mut self) -> std::io::Result<Option<RawChunk>> {
        if self.done {
            return Ok(None);
        }
        let mut buf = std::mem::take(&mut self.carry);
        loop {
            // Cut once the target is reached *and* a newline exists to
            // cut at; an over-long line keeps the chunk growing instead.
            if buf.len() >= self.target {
                if let Some(pos) = self.scan.rfind_byte(&buf, b'\n') {
                    self.carry = buf.split_off(pos + 1);
                    return Ok(Some(self.emit(buf)));
                }
            }
            let old = buf.len();
            buf.resize(old + self.target, 0);
            match self.inner.read(&mut buf[old..]) {
                Ok(0) => {
                    buf.truncate(old);
                    self.done = true;
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    // Final flush: the last line may lack its newline.
                    return Ok(Some(self.emit(buf)));
                }
                Ok(n) => buf.truncate(old + n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    buf.truncate(old);
                }
                Err(e) => {
                    buf.truncate(old);
                    // Keep the carry so a retried read resumes cleanly.
                    self.carry = buf;
                    return Err(e);
                }
            }
        }
    }

    fn emit(&mut self, bytes: Vec<u8>) -> RawChunk {
        let chunk = RawChunk {
            seq: self.next_seq,
            first_lineno: self.next_lineno,
            bytes,
        };
        self.next_seq += 1;
        self.next_lineno += self.scan.count_byte(&chunk.bytes, b'\n') as u64;
        chunk
    }
}

impl<R: Read> Iterator for ChunkReader<R> {
    type Item = std::io::Result<RawChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk().transpose()
    }
}

/// A [`RawChunk`] borrowing its bytes from the input slice instead of
/// owning them — what [`SliceChunker`] emits, so an mmap'd trace flows
/// to the parser threads without a single copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef<'a> {
    /// Dense chunk sequence number, starting at 0.
    pub seq: u64,
    /// Absolute 1-based line number of the first line in `bytes`.
    pub first_lineno: u64,
    /// The chunk's bytes, borrowed from the source slice.
    pub bytes: &'a [u8],
}

impl<'a> ChunkRef<'a> {
    /// Iterates the chunk's lines as `(absolute_lineno, line)` pairs —
    /// same contract as [`RawChunk::lines`].
    pub fn lines(&self) -> ChunkLines<'a> {
        ChunkLines {
            bytes: self.bytes,
            pos: 0,
            lineno: self.first_lineno,
            scan: scanner(),
        }
    }
}

/// The zero-copy counterpart of [`ChunkReader`]: cuts an in-memory byte
/// slice (an mmap'd trace file) into borrowed, newline-aligned
/// [`ChunkRef`]s.
///
/// The cut points are **chunk-for-chunk identical** to a [`ChunkReader`]
/// over the same bytes (property-tested in `tests/chunk_prop.rs`): the
/// chunker simulates the reader's fill loop — grow by `target`, cut at
/// the last newline once the target is reached, over-long lines keep
/// growing, the unterminated tail flushes at the end — so the two input
/// paths produce the same chunk sequence, not merely the same line
/// sequence.
#[derive(Debug)]
pub struct SliceChunker<'a> {
    bytes: &'a [u8],
    /// Start of the current accumulation window (the reader's carry).
    start: usize,
    /// How far the simulated fill has "read".
    fill: usize,
    target: usize,
    next_seq: u64,
    next_lineno: u64,
    done: bool,
    /// Kernel table resolved once at construction (dispatch-once).
    scan: &'static Scanner,
}

impl<'a> SliceChunker<'a> {
    /// Chunks `bytes` at roughly `target` bytes per chunk (at least one
    /// byte; chunks can exceed the target by up to one line).
    pub fn new(bytes: &'a [u8], target: usize) -> Self {
        SliceChunker {
            bytes,
            start: 0,
            fill: 0,
            target: target.max(1),
            next_seq: 0,
            next_lineno: 1,
            done: false,
            scan: scanner(),
        }
    }

    /// Pulls the next newline-aligned chunk, or `None` at end of input.
    pub fn next_chunk(&mut self) -> Option<ChunkRef<'a>> {
        if self.done {
            return None;
        }
        loop {
            let window = &self.bytes[self.start..self.fill];
            if window.len() >= self.target {
                if let Some(pos) = self.scan.rfind_byte(window, b'\n') {
                    let chunk = self.emit(&self.bytes[self.start..self.start + pos + 1]);
                    self.start += pos + 1;
                    return Some(chunk);
                }
            }
            if self.fill == self.bytes.len() {
                self.done = true;
                if self.start == self.fill {
                    return None;
                }
                // Final flush: the last line may lack its newline.
                let chunk = self.emit(&self.bytes[self.start..self.fill]);
                self.start = self.fill;
                return Some(chunk);
            }
            self.fill = (self.fill + self.target).min(self.bytes.len());
        }
    }

    fn emit(&mut self, bytes: &'a [u8]) -> ChunkRef<'a> {
        let chunk = ChunkRef {
            seq: self.next_seq,
            first_lineno: self.next_lineno,
            bytes,
        };
        self.next_seq += 1;
        self.next_lineno += self.scan.count_byte(bytes, b'\n') as u64;
        chunk
    }
}

impl<'a> Iterator for SliceChunker<'a> {
    type Item = ChunkRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::count_byte;
    use std::io::Cursor;

    fn chunks(input: &str, target: usize) -> Vec<RawChunk> {
        ChunkReader::new(Cursor::new(input.to_string()), target)
            .collect::<std::io::Result<_>>()
            .unwrap()
    }

    /// Reassembling the chunks must reproduce the input byte for byte —
    /// the exactly-once foundation everything downstream leans on.
    fn assert_covers(input: &str, target: usize) {
        let got = chunks(input, target);
        let rejoined: Vec<u8> = got.iter().flat_map(|c| c.bytes.clone()).collect();
        assert_eq!(
            rejoined,
            input.as_bytes(),
            "chunks at target {target} must cover the input exactly once"
        );
        // Dense sequence numbers and consistent line accounting.
        let mut lineno = 1u64;
        for (i, c) in got.iter().enumerate() {
            assert_eq!(c.seq, i as u64);
            assert_eq!(c.first_lineno, lineno, "chunk {i} line number");
            lineno += count_byte(&c.bytes, b'\n') as u64;
        }
        // Every chunk but the last ends on a newline boundary.
        for c in &got[..got.len().saturating_sub(1)] {
            assert_eq!(c.bytes.last(), Some(&b'\n'), "interior chunk unaligned");
        }
    }

    #[test]
    fn covers_input_at_every_target_size() {
        let input = "alpha\nbeta\n\ngamma delta\n# comment\nepsilon\n";
        for target in 1..=input.len() + 2 {
            assert_covers(input, target);
        }
    }

    #[test]
    fn final_line_without_newline_is_kept() {
        for target in [1, 4, 1024] {
            let got = chunks("a\nb\nc-no-newline", target);
            let all: Vec<(u64, Vec<u8>)> = got
                .iter()
                .flat_map(|c| c.lines().map(|(n, l)| (n, l.to_vec())))
                .collect();
            assert_eq!(
                all,
                vec![
                    (1, b"a".to_vec()),
                    (2, b"b".to_vec()),
                    (3, b"c-no-newline".to_vec()),
                ],
                "target {target}"
            );
        }
    }

    #[test]
    fn crlf_passes_through_to_the_line_consumer() {
        let got = chunks("a\r\nb\r\n", 3);
        let all: Vec<Vec<u8>> = got
            .iter()
            .flat_map(|c| c.lines().map(|(_, l)| l.to_vec()))
            .collect();
        assert_eq!(all, vec![b"a\r".to_vec(), b"b\r".to_vec()]);
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        assert!(chunks("", 1).is_empty());
        assert!(chunks("", 4096).is_empty());
    }

    #[test]
    fn line_longer_than_target_stays_whole() {
        let long = format!("{}\nshort\n", "x".repeat(100));
        let got = chunks(&long, 8);
        assert_eq!(got.len(), 2, "long line must not split");
        assert_eq!(got[0].bytes.len(), 101);
        assert_eq!(got[1].first_lineno, 2);
    }

    #[test]
    fn lines_iterator_matches_split_reference() {
        let input = "one\n\ntwo\r\nthree";
        let got = chunks(input, 4);
        let all: Vec<(u64, Vec<u8>)> = got
            .iter()
            .flat_map(|c| c.lines().map(|(n, l)| (n, l.to_vec())))
            .collect();
        let want: Vec<(u64, Vec<u8>)> = input
            .split('\n')
            .enumerate()
            .map(|(i, l)| (i as u64 + 1, l.as_bytes().to_vec()))
            .collect();
        assert_eq!(all, want);
    }

    #[test]
    fn slice_chunker_matches_chunk_reader_cut_for_cut() {
        let inputs = [
            "alpha\nbeta\n\ngamma delta\n# comment\nepsilon\n",
            "a\nb\nc-no-newline",
            "",
            "one-long-line-no-newline-at-all",
            "a\r\nb\r\n",
            "\n\n\n",
        ];
        for input in inputs {
            for target in 1..=input.len() + 2 {
                let streamed: Vec<RawChunk> = chunks(input, target);
                let sliced: Vec<RawChunk> = SliceChunker::new(input.as_bytes(), target)
                    .map(|c| RawChunk {
                        seq: c.seq,
                        first_lineno: c.first_lineno,
                        bytes: c.bytes.to_vec(),
                    })
                    .collect();
                assert_eq!(sliced, streamed, "input={input:?} target={target}");
            }
        }
    }

    #[test]
    fn blank_trailing_newline_does_not_invent_a_line() {
        // "a\n" is one line; the trailing newline terminates it rather
        // than opening an empty second line (split('\n') would claim
        // one — the chunk iterator must not).
        let got = chunks("a\n", 16);
        let all: Vec<(u64, Vec<u8>)> = got
            .iter()
            .flat_map(|c| c.lines().map(|(n, l)| (n, l.to_vec())))
            .collect();
        assert_eq!(all, vec![(1, b"a".to_vec())]);
    }
}
