//! The decoded-code table: what an engine that executes guest code has
//! already decoded, keyed by guest address.
//!
//! Per 4 KiB code page a byte-offset → entry table. Straight-line code stays
//! on one page, so the common lookup is a compare against the current page
//! and one indexed load; the page map is consulted only when control moves
//! to a page other than the last two. The emulator keeps one per machine
//! (around entries that also carry what its cost model asks), the tracer one
//! per rewrite; what an entry holds and when the table is dropped is theirs.

use crate::hash::WordMap;

/// Bytes of guest code one offset table covers.
const CODE_PAGE: u64 = 4096;

/// Offset table of one code page: for each byte offset, 1 + the index in
/// [`CodeTable::entries`] of the instruction that starts there, 0 if none
/// was decoded yet.
type OffsetTable = [u32; CODE_PAGE as usize];

/// No address is on this page.
const NO_PAGE: (u64, u32) = (u64::MAX, 0);

/// Entries of type `E` by the guest address they were decoded at.
pub struct CodeTable<E> {
    entries: Vec<E>,
    tables: Vec<OffsetTable>,
    /// Code page number → its index in `tables`.
    pages: WordMap<u64, u32>,
    /// The two most recently executed pages, newest first: `(page, table)`.
    recent: [(u64, u32); 2],
}

impl<E> Default for CodeTable<E> {
    fn default() -> Self {
        CodeTable {
            entries: Vec::new(),
            tables: Vec::new(),
            pages: WordMap::default(),
            recent: [NO_PAGE; 2],
        }
    }
}

impl<E> CodeTable<E> {
    /// Entries held: one per distinct address inserted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is nothing decoded yet?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget every entry, keeping the allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.tables.clear();
        self.pages.clear();
        self.recent = [NO_PAGE; 2];
    }

    /// The table of `page`, made the current one; `None` if nothing on the
    /// page has been decoded.
    #[inline]
    fn table(&mut self, page: u64) -> Option<usize> {
        if self.recent[0].0 != page {
            let t = if self.recent[1].0 == page {
                self.recent[1].1
            } else {
                *self.pages.get(&page)?
            };
            self.recent = [(page, t), self.recent[0]];
        }
        Some(self.recent[0].1 as usize)
    }

    /// The entry at `addr`, made by `decode` on first sight of the address;
    /// its error passes through and leaves nothing behind.
    #[inline]
    pub fn get_or_decode<X>(
        &mut self,
        addr: u64,
        decode: impl FnOnce() -> Result<E, X>,
    ) -> Result<&E, X> {
        if let Some(t) = self.table(addr / CODE_PAGE) {
            let slot = self.tables[t][(addr % CODE_PAGE) as usize];
            if slot != 0 {
                return Ok(&self.entries[slot as usize - 1]);
            }
        }
        let at = self.insert(addr, decode()?);
        Ok(&self.entries[at])
    }

    #[cold]
    fn insert(&mut self, addr: u64, e: E) -> usize {
        // A page gets its table with its first instruction, so a stray jump
        // into undecodable memory leaves nothing behind.
        let page = addr / CODE_PAGE;
        let t = self.table(page).unwrap_or_else(|| {
            let t = self.tables.len();
            self.tables.push([0; CODE_PAGE as usize]);
            self.pages.insert(page, t as u32);
            self.recent = [(page, t as u32), self.recent[0]];
            t
        });
        self.entries.push(e);
        self.tables[t][(addr % CODE_PAGE) as usize] = self.entries.len() as u32;
        self.entries.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_entry_per_address_across_pages() {
        let mut t: CodeTable<u64> = CodeTable::default();
        let mut made = 0;
        // Three pages, revisited out of order: the two-page recency and the
        // page map must all land on the same entries.
        let addrs = [0x40_0000u64, 0x40_0fff, 0x40_1000, 0x40_5008, 0x40_0000];
        for round in 0..3 {
            for &a in &addrs {
                let e = t.get_or_decode(a, || {
                    made += 1;
                    Ok::<_, ()>(a ^ 0xabc)
                });
                assert_eq!(e, Ok(&(a ^ 0xabc)), "round {round}");
            }
        }
        assert_eq!((made, t.len()), (4, 4));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get_or_decode(0x40_0000, || Ok::<_, ()>(7)), Ok(&7));
    }

    #[test]
    fn a_failed_decode_leaves_nothing_behind() {
        let mut t: CodeTable<u8> = CodeTable::default();
        assert_eq!(t.get_or_decode(0x1234, || Err("bad")), Err("bad"));
        assert!(t.is_empty());
        assert_eq!(t.get_or_decode(0x1234, || Ok::<_, &str>(9)), Ok(&9));
    }
}
