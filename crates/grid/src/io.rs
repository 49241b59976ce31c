//! Plain-text serialization of layouts — a stable, diff-able interchange
//! format so layouts can be saved, inspected, versioned, and re-checked
//! by external tools.
//!
//! ```text
//! mlvlayout 1
//! layout <name-with-escaped-spaces> layers=<L>
//! node <id> <x0> <y0> <x1> <y1> layer=<z>
//! wire <u> <v> <x>,<y>,<z> <x>,<y>,<z> ...
//! ```
//!
//! One record per line; wire corners in path order. Backslashes,
//! whitespace, and control characters in names are escaped as `\xNN`
//! (two hex digits), so any name — including ones embedding newlines —
//! round-trips exactly (see the tests and the proptest suite).

use crate::geom::{Point3, Rect};
use crate::layout::Layout;
use crate::path::WirePath;
use crate::streaming::StreamSource;
use std::fmt::{self, Write as _};

/// Serialize a layout — a flat [`Layout`] or any other
/// [`StreamSource`], such as a tiled IR — to the text format.
pub fn write_layout<S: StreamSource + ?Sized>(src: &S) -> String {
    let mut out = String::new();
    // writing into a String cannot fail
    let _ = write_layout_to(src, &mut out);
    out
}

/// Stream the text format of `src` into any [`fmt::Write`] sink, record
/// by record, without building the text first (the engine's digest
/// hashes the bytes as they are written).
///
/// Nodes, then wires, in the order the source visits them. A run of
/// repeated consecutive corners is written once, as
/// [`WirePath::new`] stores it, so a source that yields raw corner
/// sequences serializes to the same bytes as its materialized layout.
/// Each `node` and `wire` record reaches the sink as one `write_str`
/// call.
pub fn write_layout_to<S, W>(src: &S, out: &mut W) -> fmt::Result
where
    S: StreamSource + ?Sized,
    W: fmt::Write + ?Sized,
{
    writeln!(out, "mlvlayout 1")?;
    writeln!(out, "layout {} layers={}", escape(src.name()), src.layers())?;
    let mut line = Line(Vec::new());
    let mut res = Ok(());
    src.visit_nodes(&mut |n| {
        if res.is_ok() {
            let r = n.rect;
            line.text("node ");
            line.int(n.node.into());
            for v in [r.x0, r.y0, r.x1, r.y1] {
                line.text(" ");
                line.int(v);
            }
            line.text(" layer=");
            line.int(n.layer.into());
            res = line.end(out);
        }
    });
    res?;
    src.visit_wires(&mut |u, v, corners| {
        if res.is_ok() {
            line.text("wire ");
            line.int(u.into());
            line.text(" ");
            line.int(v.into());
            let mut prev = None;
            for &c in corners {
                if prev != Some(c) {
                    line.text(" ");
                    line.int(c.x);
                    line.text(",");
                    line.int(c.y);
                    line.text(",");
                    line.int(c.z.into());
                    prev = Some(c);
                }
            }
            res = line.end(out);
        }
    });
    res
}

/// The decimal digits of 0 to 99, two bytes each.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// One record of the text format, built in a reused buffer and handed
/// to the sink whole: a sink called once per integer, as `fmt` does,
/// made the text digest 2–5× the cost of hashing its bytes.
struct Line(Vec<u8>);

// The methods are inlined into each sink's copy of `write_layout_to`,
// which other crates instantiate: otherwise every integer is a call.
impl Line {
    #[inline]
    fn text(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }

    /// `v` in decimal, as `Display` writes it. The digits go into a
    /// fixed-size block that is then cut to length, because a copy of a
    /// variable length is a call.
    #[inline]
    fn int(&mut self, v: i64) {
        if v < 0 {
            self.0.push(b'-');
        }
        let mut n = v.unsigned_abs();
        let digits = n.checked_ilog10().map_or(1, |k| k as usize + 1);
        let start = self.0.len();
        self.0.extend_from_slice(&[b'0'; 20]);
        self.0.truncate(start + digits);
        // two digits per division, from the right
        let mut rest = &mut self.0[start..];
        while let [head @ .., a, b] = rest {
            let k = (n % 100) as usize * 2;
            n /= 100;
            (*a, *b) = (DIGIT_PAIRS[k], DIGIT_PAIRS[k + 1]);
            rest = head;
        }
        if let [d] = rest {
            *d = b'0' + n as u8;
        }
    }

    /// End the record with a newline, write it, and empty the buffer.
    #[inline]
    fn end<W: fmt::Write + ?Sized>(&mut self, out: &mut W) -> fmt::Result {
        self.0.push(b'\n');
        let text = std::str::from_utf8(&self.0).expect("a record is ASCII");
        let res = out.write_str(text);
        self.0.clear();
        res
    }
}

/// A parse failure, with the offending 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Parse a layout from the text format. Structural errors (bad numbers,
/// missing headers) are reported with line numbers; *semantic* legality
/// is the checker's job — run it after loading.
pub fn read_layout(text: &str) -> Result<Layout, ParseError> {
    let err = |line: usize, message: &str| ParseError {
        line,
        message: message.to_string(),
    };
    let mut lines = text.lines().enumerate();
    let (i, magic) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    if magic.trim() != "mlvlayout 1" {
        return Err(err(i + 1, "expected header 'mlvlayout 1'"));
    }
    let (i, header) = lines.next().ok_or_else(|| err(2, "missing layout line"))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("layout") {
        return Err(err(i + 1, "expected 'layout <name> layers=<L>'"));
    }
    let name = unescape(parts.next().ok_or_else(|| err(i + 1, "missing name"))?)
        .map_err(|m| err(i + 1, &m))?;
    let layers: usize = parts
        .next()
        .and_then(|t| t.strip_prefix("layers="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(i + 1, "missing or bad layers=<L>"))?;
    if layers == 0 {
        return Err(err(i + 1, "layers must be >= 1"));
    }
    let mut layout = Layout::new(name, layers);
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("node") => {
                let mut num = |what: &str| -> Result<i64, ParseError> {
                    parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(i + 1, &format!("bad node {what}")))
                };
                let id = u32::try_from(num("id")?)
                    .map_err(|_| err(i + 1, "node id out of range (must fit in u32)"))?;
                let (x0, y0, x1, y1) = (num("x0")?, num("y0")?, num("x1")?, num("y1")?);
                let layer: i32 = parts
                    .next()
                    .and_then(|t| t.strip_prefix("layer="))
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(i + 1, "missing or bad layer=<z>"))?;
                if x1 < x0 || y1 < y0 {
                    return Err(err(i + 1, "degenerate node rectangle"));
                }
                if layer < 0 || layer as usize >= layers {
                    return Err(err(i + 1, "node layer outside the layer budget"));
                }
                layout.place_node_at(id, Rect::new(x0, y0, x1, y1), layer);
            }
            Some("wire") => {
                let mut id = |what: &str| -> Result<u32, ParseError> {
                    parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(i + 1, &format!("bad wire {what}")))
                };
                let u = id("u")?;
                let v = id("v")?;
                let mut corners = Vec::new();
                for tok in parts {
                    let mut fields = tok.split(',');
                    let mut num = || fields.next().and_then(|t| t.parse::<i64>().ok());
                    match (num(), num(), num()) {
                        (Some(x), Some(y), Some(z)) => {
                            let z = i32::try_from(z).map_err(|_| {
                                err(i + 1, &format!("corner layer out of range in '{tok}'"))
                            })?;
                            corners.push(Point3::new(x, y, z));
                        }
                        _ => return Err(err(i + 1, &format!("bad corner '{tok}'"))),
                    }
                }
                if corners.is_empty() {
                    return Err(err(i + 1, "wire needs at least one corner"));
                }
                layout.add_wire(u, v, WirePath::new(corners));
            }
            Some(other) => {
                return Err(err(i + 1, &format!("unknown record '{other}'")));
            }
            None => {}
        }
    }
    Ok(layout)
}

/// Characters that would break the line/token structure (or render
/// invisibly) are written as `\xNN`: the backslash itself, ASCII
/// whitespace, every control character, and DEL.
fn needs_escape(c: char) -> bool {
    c == '\\' || c == ' ' || (c as u32) < 0x20 || c == '\x7f'
}

/// Escape a name for the text format: the backslash, ASCII whitespace,
/// every control character, and DEL become `\xNN` (two hex digits).
/// The same rules back `mlv_core::trace`'s key escaping, so trace
/// output and layout files stay mutually greppable. Inverse of
/// [`unescape`]: `unescape(&escape(s)) == Ok(s)` for every string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if needs_escape(c) {
            out.push_str(&format!("\\x{:02x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out
}

/// Escape a string for embedding inside a JSON string literal.
///
/// The workspace-wide JSON escaper: `mlv_layout::engine` report lines,
/// `mlv serve` responses, and every other hand-rolled JSON emitter
/// route names through here. Escapes the quote, the backslash, **every
/// C0 control character** (the JSON grammar forbids them raw), *and*
/// DEL (`0x7f`) — matching [`escape`]'s coverage, so a family or PDK
/// name that round-trips through the layout text format also
/// round-trips through a JSON report. `\n`, `\r`, and `\t` use their
/// short forms; other controls and DEL use `\u00XX`.
///
/// (The engine's previous private escaper left DEL through raw —
/// valid JSON, but the one name byte the text format escapes that the
/// report did not, so a report label was not greppable against its
/// layout file. Pinned by the `json_escape_covers_io_escape_range`
/// regression test.)
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\x7f' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape`]. Every malformed escape — a backslash not followed
/// by `x` plus two hex digits, including truncations at end of input —
/// is an `Err` (never a panic); [`read_layout`] surfaces it as a
/// [`ParseError`] with the offending line number.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let (x, hi, lo) = (chars.next(), chars.next(), chars.next());
        let byte = match (x, hi, lo) {
            (Some('x'), Some(h), Some(l)) => {
                let h = h.to_digit(16);
                let l = l.to_digit(16);
                match (h, l) {
                    (Some(h), Some(l)) => h * 16 + l,
                    _ => return Err(format!("bad escape sequence in name '{s}'")),
                }
            }
            _ => return Err(format!("truncated escape sequence in name '{s}'")),
        };
        out.push(char::from_u32(byte).expect("two hex digits are always a valid char"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::NodePlacement;
    use mlv_core::prop;
    use mlv_topology::NodeId;

    fn sample() -> Layout {
        let mut l = Layout::new("round trip", 4);
        l.place_node(0, Rect::new(0, 0, 2, 2));
        l.place_node_at(1, Rect::new(0, 0, 2, 2), 2);
        l.add_wire(
            0,
            1,
            WirePath::new(vec![
                Point3::new(2, 0, 0),
                Point3::new(4, 0, 0),
                Point3::new(4, 0, 2),
                Point3::new(2, 0, 2),
            ]),
        );
        l
    }

    /// A source that yields each wire's corners with every corner
    /// doubled, as a tile expansion can before `WirePath::new` collapses
    /// the repeats.
    struct Doubled(Layout);

    impl StreamSource for Doubled {
        fn name(&self) -> &str {
            &self.0.name
        }
        fn layers(&self) -> usize {
            self.0.layers
        }
        fn node_count(&self) -> usize {
            self.0.nodes.len()
        }
        fn wire_count(&self) -> usize {
            self.0.wires.len()
        }
        fn visit_nodes(&self, f: &mut dyn FnMut(NodePlacement)) {
            self.0.visit_nodes(f)
        }
        fn visit_wires(&self, f: &mut dyn FnMut(NodeId, NodeId, &[Point3])) {
            for w in &self.0.wires {
                let raw: Vec<Point3> = w.path.corners().iter().flat_map(|&c| [c, c]).collect();
                f(w.u, w.v, &raw);
            }
        }
    }

    #[test]
    fn repeated_raw_corners_are_written_once() {
        let l = sample();
        let text = write_layout(&l);
        assert_eq!(write_layout(&Doubled(l)), text);
    }

    /// A source that yields exactly what it holds: any coordinates, ids
    /// and layers, and raw corners with repeats.
    struct Raw {
        nodes: Vec<NodePlacement>,
        wires: Vec<(NodeId, NodeId, Vec<Point3>)>,
    }

    impl StreamSource for Raw {
        fn name(&self) -> &str {
            "raw source"
        }
        fn layers(&self) -> usize {
            3
        }
        fn node_count(&self) -> usize {
            self.nodes.len()
        }
        fn wire_count(&self) -> usize {
            self.wires.len()
        }
        fn visit_nodes(&self, f: &mut dyn FnMut(NodePlacement)) {
            self.nodes.iter().for_each(|n| f(n.clone()));
        }
        fn visit_wires(&self, f: &mut dyn FnMut(NodeId, NodeId, &[Point3])) {
            for (u, v, corners) in &self.wires {
                f(*u, *v, corners);
            }
        }
    }

    /// The text format as `fmt` writes it, record by record: the
    /// reference the serializer must equal byte for byte.
    fn reference(src: &Raw) -> String {
        let mut out = format!("mlvlayout 1\nlayout {} layers={}\n", escape(src.name()), 3);
        for n in &src.nodes {
            let r = n.rect;
            out += &format!(
                "node {} {} {} {} {} layer={}\n",
                n.node, r.x0, r.y0, r.x1, r.y1, n.layer
            );
        }
        for (u, v, corners) in &src.wires {
            out += &format!("wire {u} {v}");
            let mut prev = None;
            for &c in corners {
                if prev != Some(c) {
                    out += &format!(" {},{},{}", c.x, c.y, c.z);
                    prev = Some(c);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Coordinates, layers and node ids at the edges of decimal
    /// formatting: one digit or two, a sign, and the ends of each type.
    const COORDS: [i64; 9] = [0, 1, -1, 9, -9, 10, -10, i64::MIN, i64::MAX];
    const LAYERS: [i32; 6] = [0, 1, -1, -10, i32::MIN, i32::MAX];
    const IDS: [u32; 5] = [0, 9, 10, u32::MAX - 1, u32::MAX];

    mlv_core::mlv_proptest! {
        /// The serializer writes what `fmt` writes, for every integer
        /// the format can hold and with repeated raw corners.
        #[test]
        fn serializer_equals_the_fmt_reference(
            nodes in prop::vec((0usize..5, (0usize..9, 0usize..9), (0usize..9, 0usize..9), 0usize..6), 0..5),
            wires in prop::vec((0usize..5, 0usize..5, prop::vec((0usize..9, 0usize..9, 0usize..6, 0u8..3), 1..7)), 0..5),
            wide in (0u64..u64::MAX, 0u64..u64::from(u32::MAX) + 1),
        ) {
            let mut src = Raw {
                nodes: nodes
                    .iter()
                    .map(|&(id, (x0, y0), (x1, y1), z)| NodePlacement {
                        node: IDS[id],
                        rect: Rect { x0: COORDS[x0], y0: COORDS[y0], x1: COORDS[x1], y1: COORDS[y1] },
                        layer: LAYERS[z],
                    })
                    .collect(),
                wires: Vec::new(),
            };
            for (u, v, picks) in &wires {
                let mut corners = Vec::new();
                for &(x, y, z, repeat) in picks {
                    let c = Point3::new(COORDS[x], COORDS[y], LAYERS[z]);
                    // a third of the corners come twice in a row
                    corners.extend(std::iter::repeat_n(c, if repeat == 0 { 2 } else { 1 }));
                }
                src.wires.push((IDS[*u], IDS[*v], corners));
            }
            // and one record of arbitrary magnitudes, either sign
            let (x, id) = (wide.0 as i64, wide.1 as u32);
            src.wires.push((id, id, vec![Point3::new(x, x.wrapping_neg(), -1), Point3::new(x, x, 0)]));
            mlv_core::prop_assert_eq!(write_layout(&src), reference(&src));
        }
    }

    #[test]
    fn round_trip() {
        let l = sample();
        let text = write_layout(&l);
        let back = read_layout(&text).unwrap();
        assert_eq!(back.name, l.name);
        assert_eq!(back.layers, l.layers);
        assert_eq!(back.nodes.len(), l.nodes.len());
        assert_eq!(back.nodes[1].layer, 2);
        assert_eq!(back.wires.len(), 1);
        assert_eq!(back.wires[0].path, l.wires[0].path);
        // and the re-serialization is byte-identical (stable format)
        assert_eq!(write_layout(&back), text);
    }

    #[test]
    fn name_escaping() {
        let mut l = Layout::new("a b\\c", 2);
        l.place_node(0, Rect::new(0, 0, 0, 0));
        let back = read_layout(&write_layout(&l)).unwrap();
        assert_eq!(back.name, "a b\\c");
    }

    #[test]
    fn adversarial_names_round_trip() {
        // control characters, whitespace, and escape-looking content
        // must all survive the documented round-trip guarantee
        for name in [
            "a\nb",
            "tab\there",
            "bell\x07",
            "esc\x1b[0m colours",
            "del\x7f",
            "looks escaped \\x20 already",
            "trailing backslash \\",
            "\r\n",
        ] {
            let mut l = Layout::new(name, 2);
            l.place_node(0, Rect::new(0, 0, 0, 0));
            let text = write_layout(&l);
            // escaping keeps the format line-structured
            assert_eq!(text.lines().count(), 3, "{name:?} broke line structure");
            let back = read_layout(&text).unwrap_or_else(|e| panic!("{name:?}: {e}"));
            assert_eq!(back.name, name);
            assert_eq!(write_layout(&back), text);
        }
    }

    #[test]
    fn bad_name_escapes_error() {
        for bad in ["a\\xzz", "a\\x2", "a\\x", "a\\", "a\\y20"] {
            let text = format!("mlvlayout 1\nlayout {bad} layers=2\n");
            let e = read_layout(&text).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
        }
    }

    #[test]
    fn negative_node_id_errors_instead_of_wrapping() {
        let text = "mlvlayout 1\nlayout x layers=2\nnode -1 0 0 1 1 layer=0\n";
        let e = read_layout(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("id"), "{}", e.message);
        // and just past u32::MAX too
        let text = "mlvlayout 1\nlayout x layers=2\nnode 4294967296 0 0 1 1 layer=0\n";
        assert!(read_layout(text).is_err());
    }

    #[test]
    fn corner_layer_out_of_i32_range_errors() {
        for z in ["4294967296", "-4294967296", "2147483648"] {
            let text = format!("mlvlayout 1\nlayout x layers=2\nwire 0 1 0,0,{z} 1,0,{z}\n");
            let e = read_layout(&text).unwrap_err();
            assert_eq!(e.line, 3, "z={z}");
        }
    }

    #[test]
    fn negative_wire_endpoint_errors() {
        let text = "mlvlayout 1\nlayout x layers=2\nwire -1 0 0,0,0 1,0,0\n";
        let e = read_layout(text).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_layout("nope").is_err());
        assert!(read_layout("mlvlayout 1\nlayout x layers=abc").is_err());
    }

    #[test]
    fn rejects_bad_records_with_line_numbers() {
        let text = "mlvlayout 1\nlayout x layers=2\nnode 0 0 0 0\n";
        let e = read_layout(text).unwrap_err();
        assert_eq!(e.line, 3);
        let text = "mlvlayout 1\nlayout x layers=2\nwire 0 1 1,2\n";
        let e = read_layout(text).unwrap_err();
        assert_eq!(e.line, 3);
        let text = "mlvlayout 1\nlayout x layers=2\nblob\n";
        assert!(read_layout(text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "mlvlayout 1\nlayout x layers=2\n\n# comment\nnode 7 0 0 1 1 layer=0\n";
        let l = read_layout(text).unwrap();
        assert_eq!(l.nodes.len(), 1);
        assert_eq!(l.nodes[0].node, 7);
    }
}
