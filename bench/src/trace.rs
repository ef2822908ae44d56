//! Spans and allocation counts, recorded by the benchmark around each call
//! it makes into a layer. Nothing here is compiled into the program under
//! test: with tracing off `enter`/`exit` return at once and the allocator
//! only forwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator; counts calls and bytes while a traced
/// round is running. The counters are statistics and publish no data, so
/// `Relaxed` is enough.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller passes a layout valid for `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<call>`; the crate prefix is the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this; 0 is set-up.
    pub request_id: u64,
    /// A repeat of work the request already did inside an opaque call, made
    /// only to size that layer; it is outside every request span.
    pub shadow: bool,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request_id: u64,
    shadow: bool,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request_id: 0,
            shadow: false,
        }
    }

    /// Switches span recording and allocation counting on.
    pub fn on() -> Self {
        COUNTING.store(true, Ordering::Relaxed);
        Tracer { on: true, ..Tracer::off() }
    }

    pub fn set_request(&mut self, id: u64) {
        self.request_id = id;
    }

    /// Marks the spans entered by `f` as shadow calls.
    pub fn shadow<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let was = std::mem::replace(&mut self.shadow, true);
        let out = f(self);
        self.shadow = was;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request_id: self.request_id,
            shadow: self.shadow,
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        });
        self.stack.push(index);
        // Read the clock last, so the span excludes its own bookkeeping.
        self.spans[index].start_ns = self.now_ns();
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = ALLOCS.load(Ordering::Relaxed) - span.allocs;
        span.alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - span.alloc_bytes;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close in the order they opened");
    }

    /// Times one call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request_id\":{},\"shadow\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id, s.shadow, s.allocs, s.alloc_bytes
            )?;
        }
        Ok(())
    }
}
