//! Fixture: retained routes whose price arrays share one slab — written in
//! place or appended, and compacted into one annotated allocation.

/// Where one array lies in its slab.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    offset: usize,
    len: usize,
}

/// Price arrays back to back.
#[derive(Debug, Default)]
pub struct PriceSlab {
    prices: Vec<u64>,
    dead: usize,
}

/// A retained route: its cost and where its prices lie.
#[derive(Debug)]
pub struct RibCell {
    cost: u64,
    prices: Span,
}

impl PriceSlab {
    /// The array `span` names.
    pub fn get(&self, span: Span) -> &[u64] {
        self.prices.get(span.offset..span.offset + span.len).unwrap_or_default()
    }

    /// The array `span` names, writable.
    pub fn get_mut(&mut self, span: Span) -> &mut [u64] {
        self.prices.get_mut(span.offset..span.offset + span.len).unwrap_or_default()
    }

    /// Stores `values` in place when they fit, appended otherwise.
    pub fn put(&mut self, span: &mut Span, values: &[u64]) {
        if values.len() <= span.len {
            self.dead += span.len - values.len();
            span.len = values.len();
            self.get_mut(*span).copy_from_slice(values);
            return;
        }
        self.dead += span.len;
        *span = Span {
            offset: self.prices.len(),
            len: values.len(),
        };
        self.prices.extend_from_slice(values);
    }

    /// Gives up the array `span` names.
    pub fn release(&mut self, span: Span) {
        self.dead += span.len;
    }

    /// Compacts over every cell once a quarter of the slab is dead.
    pub fn tidy(&mut self, cells: &mut [RibCell]) {
        self.tidy_spans(cells.iter_mut().map(|cell| &mut cell.prices));
    }

    /// Compacts over every span once a quarter of the slab is dead.
    pub fn tidy_spans<'a>(&mut self, spans: impl Iterator<Item = &'a mut Span>) {
        if self.dead * 4 < self.prices.len() {
            return;
        }
        // lint:allow(growth: the compacted slab, one allocation per quarter of it gone dead)
        let mut kept = Vec::with_capacity(self.prices.len() - self.dead);
        for span in spans {
            let offset = kept.len();
            kept.extend_from_slice(self.get(*span));
            span.offset = offset;
        }
        self.prices = kept;
        self.dead = 0;
    }
}

impl RibCell {
    /// The route's cost and prices, read from its owner's slab.
    pub fn view<'a>(&'a self, slab: &'a PriceSlab) -> (u64, &'a [u64]) {
        (self.cost, slab.get(self.prices))
    }
}
