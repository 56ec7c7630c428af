//! Seeded input generation: settings, documents, queries and edit batches.
//!
//! Everything here is a pure function of a seed, so one `--seed` always
//! yields the same inputs. All of it runs before any timing starts.

use xdx_store::DocEdit;
use xdx_xmltree::XmlTree;

/// SplitMix64: small, fast, and good enough to draw workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream derived from this seed and a label.
    pub fn derive(seed: u64, label: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(label.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s` (rank 0 is hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Fields of the shipped/resident setting (Clio-class: 8 fields, 8 STDs).
pub const SHIP_FIELDS: usize = 8;
/// Distinct attribute values a field node draws from.
const SHIP_VALUES: usize = 128;

/// The setting of `ship_batch` and `resident_mixed`, in `settext` syntax.
///
/// Source `src → f0* … f7*`, each `fi` a leaf with `@v`. Target
/// `tgt → g0* … g7*` where every `gi` must have exactly one `hi` child.
/// STD `i` copies each `fi/@v` into a `gi`, and the template never
/// creates the `hi`, so the chase applies one structural `ChangeReg`
/// repair per instantiated `gi`, plus a `ChangeAtt` null for `hi/@w`.
pub fn ship_setting_text() -> String {
    let fields: Vec<usize> = (0..SHIP_FIELDS).collect();
    let star = |p: &str| {
        fields
            .iter()
            .map(|i| format!("{p}{i}*"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut s = format!("source {{ root src; rule src = {};", star("f"));
    for i in &fields {
        s += &format!(" rule f{i} = eps; attrs f{i} = @v;");
    }
    s += &format!(" }} target {{ root tgt; rule tgt = {};", star("g"));
    for i in &fields {
        s += &format!(" rule g{i} = h{i}; rule h{i} = eps; attrs g{i} = @v; attrs h{i} = @w;");
    }
    s += " }";
    for i in &fields {
        s += &format!(" std tgt[g{i}(@v=$x)] :- src[f{i}(@v=$x)];");
    }
    s
}

/// The two `CertainAnswers` queries over the ship setting's target: a
/// single-field projection and a two-field join.
pub const SHIP_QUERIES: [&str; 2] = [
    "($x) :- tgt[g0(@v=$x)]",
    "($x) :- tgt[g1(@v=$x), g2(@v=$x)]",
];

/// A source document of the ship setting as a list of `(field, value)`
/// leaves, kept grouped by field so it conforms in the ordered sense.
/// `resident_mixed` keeps one per document as its shadow copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDoc {
    pub leaves: Vec<(u8, u16)>,
}

impl FieldDoc {
    /// A document with `nodes` nodes in total (root included).
    pub fn random(rng: &mut Rng, nodes: usize) -> FieldDoc {
        let mut leaves: Vec<(u8, u16)> = (1..nodes)
            .map(|_| (rng.below(SHIP_FIELDS) as u8, rng.below(SHIP_VALUES) as u16))
            .collect();
        leaves.sort_by_key(|&(f, _)| f);
        FieldDoc { leaves }
    }

    pub fn to_tree(&self) -> XmlTree {
        let mut tree = XmlTree::new("src");
        let root = tree.root();
        for &(f, v) in &self.leaves {
            let node = tree.add_child(root, format!("f{f}"));
            tree.set_attr(node, "@v", format!("v{v}"));
        }
        tree
    }

    /// Child positions `start..end` of field `f`'s block.
    fn block(&self, f: u8) -> (usize, usize) {
        let start = self.leaves.partition_point(|&(g, _)| g < f);
        let end = self.leaves.partition_point(|&(g, _)| g <= f);
        (start, end)
    }

    /// Draw a batch of 1–4 node-local edits that keeps the document a
    /// valid source instance, and apply it to this shadow copy. Edits
    /// address nodes by preorder rank: the root is rank 0 and leaf `j` is
    /// rank `j + 1`. An insert is two edits (the leaf, then its `@v`).
    pub fn edit_batch(&mut self, rng: &mut Rng) -> Vec<DocEdit> {
        let want = 1 + rng.below(4);
        let mut edits = Vec::with_capacity(want);
        while edits.len() < want {
            let roll = rng.below(10);
            let len = self.leaves.len();
            if roll < 2 && edits.len() + 2 <= want && len < 512 {
                let f = rng.below(SHIP_FIELDS) as u8;
                let (start, end) = self.block(f);
                let at = start + rng.below(end - start + 1);
                let v = rng.below(SHIP_VALUES) as u16;
                self.leaves.insert(at, (f, v));
                edits.push(DocEdit::InsertChild {
                    parent: 0,
                    at: at as u32,
                    label: format!("f{f}").as_str().into(),
                });
                edits.push(DocEdit::SetAttr {
                    node: at as u32 + 1,
                    name: "@v".into(),
                    value: format!("v{v}").as_str().into(),
                });
            } else if roll < 4 && len > 64 {
                let at = rng.below(len);
                self.leaves.remove(at);
                edits.push(DocEdit::RemoveChild {
                    parent: 0,
                    at: at as u32,
                });
            } else if len > 0 {
                let at = rng.below(len);
                let v = rng.below(SHIP_VALUES) as u16;
                self.leaves[at].1 = v;
                edits.push(DocEdit::SetAttr {
                    node: at as u32 + 1,
                    name: "@v".into(),
                    value: format!("v{v}").as_str().into(),
                });
            }
        }
        edits
    }
}

/// Tenants of `tenant_small`.
pub const TENANTS: usize = 32;
/// Distinct attribute values in a tenant document (small, so joins hit).
const TENANT_VALUES: usize = 8;

fn tenant_fields(t: usize) -> usize {
    2 + t % 3
}

/// Tenant `t`'s setting: a small Clio-class setting whose element names
/// carry `t`, so all 32 canonical texts (and content hashes) differ.
pub fn tenant_setting_text(t: usize) -> String {
    let n = tenant_fields(t);
    let star = |p: &str| {
        (0..n)
            .map(|i| format!("{p}{t}_{i}*"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut s = format!("source {{ root s{t}; rule s{t} = {};", star("a"));
    for i in 0..n {
        s += &format!(" rule a{t}_{i} = eps; attrs a{t}_{i} = @v;");
    }
    s += &format!(" }} target {{ root t{t}; rule t{t} = {};", star("b"));
    for i in 0..n {
        s += &format!(" rule b{t}_{i} = eps; attrs b{t}_{i} = @v, @x;");
    }
    s += " }";
    for i in 0..n {
        s += &format!(" std t{t}[b{t}_{i}(@v=$x)] :- s{t}[a{t}_{i}(@v=$x)];");
    }
    s
}

/// Tenant `t`'s Boolean query: do fields 0 and 1 share a value?
pub fn tenant_query(t: usize) -> String {
    format!("() :- t{t}[b{t}_0(@v=$x), b{t}_1(@v=$x)]")
}

/// A tenant document of `nodes` nodes (root included).
pub fn tenant_doc(t: usize, rng: &mut Rng, nodes: usize) -> XmlTree {
    let n = tenant_fields(t);
    let mut leaves: Vec<(usize, usize)> = (1..nodes)
        .map(|_| (rng.below(n), rng.below(TENANT_VALUES)))
        .collect();
    leaves.sort_by_key(|&(f, _)| f);
    let mut tree = XmlTree::new(format!("s{t}"));
    let root = tree.root();
    for (f, v) in leaves {
        let node = tree.add_child(root, format!("a{t}_{f}"));
        tree.set_attr(node, "@v", format!("v{v}"));
    }
    tree
}
