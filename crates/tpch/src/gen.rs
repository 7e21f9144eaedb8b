//! Deterministic dbgen-style TPC-H data generator.
//!
//! Follows the TPC-H specification's table sizes, value domains and key
//! structure closely enough that all 22 queries return non-degenerate
//! results and the refresh streams hit scattered positions:
//!
//! * **sparse order keys** — only the first 8 of every 32 key slots are
//!   used by the base load (dbgen's scheme), so RF1 inserts (slots 8..16)
//!   scatter through `lineitem`'s (l_orderkey, l_linenumber) sort order;
//! * `o_orderdate` uniform in [1992-01-01, 1998-08-02], so the
//!   (o_orderdate, o_orderkey) clustering of `orders` scatters RF1 as well;
//! * string domains (part types/containers/brands, ship modes, market
//!   segments, nation/region names, phone country codes) match the spec so
//!   every query predicate selects a realistic fraction.
//!
//! Everything derives from one 64-bit seed (xorshift*), so the same SF
//! always yields byte-identical data.

use columnar::value::date_from_ymd;
use columnar::{Tuple, Value};

/// Deterministic RNG (xorshift64*).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform decimal with two digits in `[lo, hi]`.
    pub fn money(&mut self, lo: f64, hi: f64) -> f64 {
        let cents = self.range((lo * 100.0) as i64, (hi * 100.0) as i64);
        cents as f64 / 100.0
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

// --- value domains (TPC-H spec §4.2.2-4.2.3) --------------------------------

pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// (name, regionkey) for the 25 spec nations.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

pub const SHIP_INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

pub const TYPE_SYL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
pub const TYPE_SYL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
pub const TYPE_SYL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

pub const CONTAINER_SYL1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
pub const CONTAINER_SYL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Colour words for p_name (Q9 greps `%green%`, Q20 `forest%`).
pub const COLORS: [&str; 32] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
];

const COMMENT_WORDS: [&str; 24] = [
    "carefully",
    "quickly",
    "furiously",
    "slyly",
    "blithely",
    "ironic",
    "final",
    "pending",
    "regular",
    "express",
    "bold",
    "even",
    "silent",
    "daring",
    "accounts",
    "deposits",
    "packages",
    "foxes",
    "theodolites",
    "pinto",
    "beans",
    "instructions",
    "requests",
    "platelets",
];

fn comment(rng: &mut Rng, special: bool) -> String {
    let n = rng.range(4, 8) as usize;
    let mut words: Vec<&str> = (0..n).map(|_| *rng.pick(&COMMENT_WORDS)).collect();
    // inject the Q13 / Q16 trigger phrases with low probability
    if special {
        if rng.below(100) < 2 {
            words.insert(words.len() / 2, "special");
            words.push("requests");
        }
        if rng.below(100) < 2 {
            words.insert(0, "Customer");
            words.insert(1, "Complaints");
        }
    }
    words.join(" ")
}

fn phone(rng: &mut Rng, nationkey: i64) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        10 + nationkey,
        rng.range(100, 999),
        rng.range(100, 999),
        rng.range(1000, 9999)
    )
}

/// The spec's retail price formula.
pub fn retail_price(partkey: i64) -> f64 {
    (90000 + ((partkey / 10) % 20001) + 100 * (partkey % 1000)) as f64 / 100.0
}

/// Pick an order's customer: the spec leaves every third customer without
/// orders (dbgen skips custkeys ≡ 0 mod 3), which Q13's zero-bucket and
/// Q22's anti-join depend on.
pub fn pick_custkey(rng: &mut Rng, customers: u64) -> i64 {
    loop {
        let k = rng.range(1, customers as i64);
        if k % 3 != 0 {
            return k;
        }
    }
}

/// dbgen's sparse order keys: the first 8 of every 32 slots.
pub fn sparse_order_key(index: u64) -> i64 {
    ((index / 8) * 32 + (index % 8) + 1) as i64
}

/// Keys used by RF1 (never produced by the base load): slots 8..16.
pub fn refresh_order_key(index: u64) -> i64 {
    ((index / 8) * 32 + 8 + (index % 8) + 1) as i64
}

/// Date boundaries of the order population.
pub fn order_date_range() -> (i32, i32) {
    (date_from_ymd(1992, 1, 1), date_from_ymd(1998, 8, 2))
}

/// Generated base population.
#[derive(Debug, Clone)]
pub struct TpchData {
    pub sf: f64,
    pub region: Vec<Tuple>,
    pub nation: Vec<Tuple>,
    pub supplier: Vec<Tuple>,
    pub customer: Vec<Tuple>,
    pub part: Vec<Tuple>,
    pub partsupp: Vec<Tuple>,
    pub orders: Vec<Tuple>,
    pub lineitem: Vec<Tuple>,
}

impl TpchData {
    pub fn tables(&self) -> Vec<(&'static str, &Vec<Tuple>)> {
        vec![
            ("region", &self.region),
            ("nation", &self.nation),
            ("supplier", &self.supplier),
            ("customer", &self.customer),
            ("part", &self.part),
            ("partsupp", &self.partsupp),
            ("orders", &self.orders),
            ("lineitem", &self.lineitem),
        ]
    }
}

/// Cardinalities at scale factor `sf` (with small-SF floors so that every
/// query remains non-degenerate).
pub struct Sizes {
    pub suppliers: u64,
    pub customers: u64,
    pub parts: u64,
    pub orders: u64,
}

impl Sizes {
    pub fn at(sf: f64) -> Sizes {
        Sizes {
            suppliers: ((10_000.0 * sf) as u64).max(20),
            customers: ((150_000.0 * sf) as u64).max(100),
            parts: ((200_000.0 * sf) as u64).max(80),
            orders: ((1_500_000.0 * sf) as u64).max(1000),
        }
    }
}

/// Generate the base population (seeded by SF for reproducibility).
pub fn generate(sf: f64) -> TpchData {
    generate_seeded(sf, 0x7064_7467 ^ (sf * 1e6) as u64)
}

/// Build one order row + its lineitem rows. Shared with RF1.
pub fn make_order(
    rng: &mut Rng,
    orderkey: i64,
    custkey: i64,
    sizes: &Sizes,
    clerks: u64,
) -> (Tuple, Vec<Tuple>) {
    let (dlo, dhi) = order_date_range();
    let odate = rng.range(dlo as i64, dhi as i64 - 151) as i32;
    let nlines = rng.range(1, 7);
    let cutoff = date_from_ymd(1995, 6, 17);
    let mut lines = Vec::with_capacity(nlines as usize);
    let mut total = 0.0;
    let mut f_count = 0;
    for ln in 1..=nlines {
        let partkey = rng.range(1, sizes.parts as i64);
        // the spec's supplier-for-part scheme keeps (partkey, suppkey)
        // within partsupp's 4 suppliers per part
        let s = sizes.suppliers as i64;
        let i = rng.range(0, 3);
        let suppkey = (partkey + (i * ((s / 4) + (partkey - 1) / s))) % s + 1;
        let qty = rng.range(1, 50) as f64;
        let extprice = qty * retail_price(partkey);
        let discount = rng.range(0, 10) as f64 / 100.0;
        let tax = rng.range(0, 8) as f64 / 100.0;
        let shipdate = odate + rng.range(1, 121) as i32;
        let commitdate = odate + rng.range(30, 90) as i32;
        let receiptdate = shipdate + rng.range(1, 30) as i32;
        let linestatus = if shipdate > cutoff { "O" } else { "F" };
        if linestatus == "F" {
            f_count += 1;
        }
        let returnflag = if receiptdate <= cutoff {
            if rng.below(2) == 0 {
                "R"
            } else {
                "A"
            }
        } else {
            "N"
        };
        total += extprice * (1.0 - discount) * (1.0 + tax);
        lines.push(vec![
            Value::Int(orderkey),
            Value::Int(partkey),
            Value::Int(suppkey),
            Value::Int(ln),
            Value::Double(qty),
            Value::Double(extprice),
            Value::Double(discount),
            Value::Double(tax),
            Value::from(returnflag),
            Value::from(linestatus),
            Value::Date(shipdate),
            Value::Date(commitdate),
            Value::Date(receiptdate),
            Value::from(*rng.pick(&SHIP_INSTRUCT)),
            Value::from(*rng.pick(&SHIP_MODES)),
            Value::Str(comment(rng, false)),
        ]);
    }
    let status = if f_count == nlines {
        "F"
    } else if f_count == 0 {
        "O"
    } else {
        "P"
    };
    let order = vec![
        Value::Int(orderkey),
        Value::Int(custkey),
        Value::from(status),
        Value::Double((total * 100.0).round() / 100.0),
        Value::Date(odate),
        Value::from(*rng.pick(&PRIORITIES)),
        Value::Str(format!("Clerk#{:09}", rng.range(1, clerks.max(10) as i64))),
        Value::Int(0),
        Value::Str(comment(rng, true)),
    ];
    (order, lines)
}

/// Generate with an explicit seed.
pub fn generate_seeded(sf: f64, seed: u64) -> TpchData {
    let mut rng = Rng::new(seed);
    let sizes = Sizes::at(sf);

    let region: Vec<Tuple> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                Value::Int(i as i64),
                Value::from(*r),
                Value::Str(comment(&mut rng, false)),
            ]
        })
        .collect();

    let nation: Vec<Tuple> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (n, r))| {
            vec![
                Value::Int(i as i64),
                Value::from(*n),
                Value::Int(*r),
                Value::Str(comment(&mut rng, false)),
            ]
        })
        .collect();

    let supplier: Vec<Tuple> = (1..=sizes.suppliers as i64)
        .map(|k| {
            let nk = rng.range(0, 24);
            vec![
                Value::Int(k),
                Value::Str(format!("Supplier#{k:09}")),
                Value::Str(format!("addr-{}", rng.below(1_000_000))),
                Value::Int(nk),
                Value::Str(phone(&mut rng, nk)),
                Value::Double(rng.money(-999.99, 9999.99)),
                Value::Str(comment(&mut rng, true)),
            ]
        })
        .collect();

    let customer: Vec<Tuple> = (1..=sizes.customers as i64)
        .map(|k| {
            let nk = rng.range(0, 24);
            vec![
                Value::Int(k),
                Value::Str(format!("Customer#{k:09}")),
                Value::Str(format!("addr-{}", rng.below(1_000_000))),
                Value::Int(nk),
                Value::Str(phone(&mut rng, nk)),
                Value::Double(rng.money(-999.99, 9999.99)),
                Value::from(*rng.pick(&SEGMENTS)),
                Value::Str(comment(&mut rng, false)),
            ]
        })
        .collect();

    let part: Vec<Tuple> = (1..=sizes.parts as i64)
        .map(|k| {
            let name = (0..5)
                .map(|_| *rng.pick(&COLORS))
                .collect::<Vec<_>>()
                .join(" ");
            let ptype = format!(
                "{} {} {}",
                rng.pick(&TYPE_SYL1),
                rng.pick(&TYPE_SYL2),
                rng.pick(&TYPE_SYL3)
            );
            let container = format!(
                "{} {}",
                rng.pick(&CONTAINER_SYL1),
                rng.pick(&CONTAINER_SYL2)
            );
            vec![
                Value::Int(k),
                Value::Str(name),
                Value::Str(format!("Manufacturer#{}", rng.range(1, 5))),
                Value::Str(format!("Brand#{}{}", rng.range(1, 5), rng.range(1, 5))),
                Value::Str(ptype),
                Value::Int(rng.range(1, 50)),
                Value::Str(container),
                Value::Double(retail_price(k)),
                Value::Str(comment(&mut rng, false)),
            ]
        })
        .collect();

    let mut partsupp = Vec::with_capacity(4 * sizes.parts as usize);
    for pk in 1..=sizes.parts as i64 {
        let s = sizes.suppliers as i64;
        for i in 0..4 {
            let suppkey = (pk + (i * ((s / 4) + (pk - 1) / s))) % s + 1;
            partsupp.push(vec![
                Value::Int(pk),
                Value::Int(suppkey),
                Value::Int(rng.range(1, 9999)),
                Value::Double(rng.money(1.0, 1000.0)),
                Value::Str(comment(&mut rng, false)),
            ]);
        }
    }
    // partsupp's key is (ps_partkey, ps_suppkey): dedupe the rare clashes
    partsupp.sort_by(|a, b| (a[0].as_int(), a[1].as_int()).cmp(&(b[0].as_int(), b[1].as_int())));
    partsupp.dedup_by(|a, b| a[0] == b[0] && a[1] == b[1]);

    let clerks = (sizes.orders / 1500).max(10);
    let mut orders = Vec::with_capacity(sizes.orders as usize);
    let mut lineitem = Vec::with_capacity(4 * sizes.orders as usize);
    for i in 0..sizes.orders {
        let orderkey = sparse_order_key(i);
        let custkey = pick_custkey(&mut rng, sizes.customers);
        let (o, ls) = make_order(&mut rng, orderkey, custkey, &sizes, clerks);
        orders.push(o);
        lineitem.extend(ls);
    }

    TpchData {
        sf,
        region,
        nation,
        supplier,
        customer,
        part,
        partsupp,
        orders,
        lineitem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = generate(0.001);
        let b = generate(0.001);
        assert_eq!(a.orders.len(), b.orders.len());
        assert_eq!(a.lineitem[0], b.lineitem[0]);
        assert_eq!(a.customer[7], b.customer[7]);
    }

    #[test]
    fn cardinalities_scale() {
        let d = generate(0.01);
        let s = Sizes::at(0.01);
        assert_eq!(d.orders.len() as u64, s.orders);
        assert_eq!(d.part.len() as u64, s.parts);
        assert_eq!(d.region.len(), 5);
        assert_eq!(d.nation.len(), 25);
        // 1..7 lines per order
        let ratio = d.lineitem.len() as f64 / d.orders.len() as f64;
        assert!((1.0..=7.0).contains(&ratio));
    }

    #[test]
    fn sparse_keys_leave_refresh_gaps() {
        // base keys use slots 0..8 of each 32; refresh keys slots 8..16
        let base: std::collections::HashSet<i64> = (0..1000).map(sparse_order_key).collect();
        for i in 0..1000 {
            assert!(
                !base.contains(&refresh_order_key(i)),
                "refresh key {} collides",
                refresh_order_key(i)
            );
        }
        // refresh keys interleave within the same range (scattered inserts)
        assert!(refresh_order_key(0) < sparse_order_key(999));
    }

    #[test]
    fn lineitem_sorted_on_orderkey_linenumber() {
        let d = generate(0.001);
        for w in d.lineitem.windows(2) {
            let a = (w[0][0].as_int(), w[0][3].as_int());
            let b = (w[1][0].as_int(), w[1][3].as_int());
            assert!(a < b, "{a:?} !< {b:?}");
        }
    }

    #[test]
    fn value_domains() {
        let d = generate(0.001);
        for o in &d.orders {
            assert!(PRIORITIES.contains(&o[5].as_str()));
            assert!(["F", "O", "P"].contains(&o[2].as_str()));
        }
        for l in d.lineitem.iter().take(500) {
            assert!(SHIP_MODES.contains(&l[14].as_str()));
            assert!((1.0..=50.0).contains(&l[4].as_double()));
            assert!(l[10].as_date() > l[10].as_date() - 1); // shipdate valid
            assert!(l[12].as_date() > l[10].as_date()); // receipt after ship
        }
        // phones carry the nation country code (Q22)
        for c in d.customer.iter().take(100) {
            let cc: i64 = c[4].as_str()[..2].parse().unwrap();
            assert_eq!(cc, 10 + c[3].as_int());
        }
    }

    #[test]
    fn partsupp_links_match_lineitem_links() {
        // every (l_partkey, l_suppkey) must exist in partsupp (Q9 joins on it)
        let d = generate(0.001);
        let ps: std::collections::HashSet<(i64, i64)> = d
            .partsupp
            .iter()
            .map(|r| (r[0].as_int(), r[1].as_int()))
            .collect();
        for l in d.lineitem.iter().take(2000) {
            let key = (l[1].as_int(), l[2].as_int());
            assert!(ps.contains(&key), "missing partsupp {key:?}");
        }
    }
}
