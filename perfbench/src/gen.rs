//! Deterministic load generation: the read-request stream, the ingest
//! stream and the open-loop writer's schedule.
//!
//! Everything here is a pure function of the workload seed (and, for the
//! ingest stream, of the dataset the seed generated), so two runs with one
//! seed send byte-identical requests.

use retia_graph::Quad;

/// Candidates asked for per query.
pub const TOP_K: usize = 10;

/// One read request in this many is a relation query `(s, ?, o)`. The rest
/// are entity queries, half of them subject queries through the inverse
/// relation id `r + M`. This is the mix of the repository's own query
/// protocol (`retia::entity_queries`/`relation_queries`, which
/// `Trainer::evaluate` uses): two entity queries and one relation query
/// per fact.
pub const RELATION_QUERY_EVERY: u64 = 3;

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent sequences
    /// (one per client connection) drawn from one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One read request's single query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuerySpec {
    /// `(subject, relation, ?)`; `relation` may be an inverse id `r + M`.
    Entity {
        /// Subject entity id.
        subject: u32,
        /// Relation id in `0..2M`.
        relation: u32,
    },
    /// `(subject, ?, object)`.
    Relation {
        /// Subject entity id.
        subject: u32,
        /// Object entity id.
        object: u32,
    },
}

impl QuerySpec {
    /// The `POST /v1/query` body for this query.
    pub fn body(&self) -> String {
        match *self {
            QuerySpec::Entity { subject, relation } => format!(
                "{{\"kind\":\"entity\",\"k\":{TOP_K},\"queries\":[{{\"subject\":{subject},\"relation\":{relation}}}]}}"
            ),
            QuerySpec::Relation { subject, object } => format!(
                "{{\"kind\":\"relation\",\"k\":{TOP_K},\"queries\":[{{\"subject\":{subject},\"object\":{object}}}]}}"
            ),
        }
    }
}

/// Endless, seeded stream of single-query read requests.
pub struct QueryGen {
    rng: Rng,
    entities: u64,
    relations: u64,
}

impl QueryGen {
    /// Queries over `entities` entities and `relations` original relations
    /// for connection `stream`.
    pub fn new(seed: u64, stream: u64, entities: usize, relations: usize) -> QueryGen {
        QueryGen {
            rng: Rng::new(seed, stream),
            entities: entities as u64,
            relations: relations as u64,
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> QuerySpec {
        let subject = self.rng.below(self.entities) as u32;
        if self.rng.below(RELATION_QUERY_EVERY) == 0 {
            let object = self.rng.below(self.entities) as u32;
            QuerySpec::Relation { subject, object }
        } else {
            let relation = self.rng.below(2 * self.relations) as u32;
            QuerySpec::Entity { subject, relation }
        }
    }
}

/// The stream workload's facts: the boot prefix bulk-loaded into the store
/// and the ingest batches replayed after it, in order.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestPlan {
    /// Facts of the first `boot_timestamps` timestamps.
    pub boot: Vec<Quad>,
    /// Every later timestamp's facts as two batches (first half, second
    /// half); the second extends the snapshot the first one opened.
    pub batches: Vec<Vec<Quad>>,
}

/// Splits timestamp-grouped facts into a boot prefix and ingest batches.
pub fn ingest_plan(groups: &[(u32, Vec<Quad>)], boot_timestamps: usize) -> IngestPlan {
    let split = boot_timestamps.min(groups.len());
    let boot = groups[..split].iter().flat_map(|(_, g)| g.iter().copied()).collect();
    let mut batches = Vec::new();
    for (_, facts) in &groups[split..] {
        let half = facts.len().div_ceil(2);
        batches.push(facts[..half].to_vec());
        if half < facts.len() {
            batches.push(facts[half..].to_vec());
        }
    }
    IngestPlan { boot, batches }
}

/// The `POST /v1/ingest` body for one batch.
pub fn ingest_body(facts: &[Quad]) -> String {
    let items: Vec<String> = facts
        .iter()
        .map(|q| {
            format!(
                "{{\"subject\":{},\"relation\":{},\"object\":{},\"timestamp\":{}}}",
                q.s, q.r, q.o, q.t
            )
        })
        .collect();
    format!("{{\"facts\":[{}]}}", items.join(","))
}

/// One open-loop send, as offsets in seconds from the schedule start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Send {
    /// When the schedule wanted it sent.
    pub due_s: f64,
    /// When it was actually sent (never before `due_s`).
    pub sent_s: f64,
    /// When its response arrived.
    pub done_s: f64,
    /// Whether the response acknowledged the whole batch.
    pub ok: bool,
}

/// The open-loop writer's schedule and ledger: send `i` is due at
/// `i × interval`. Latency runs from the due time, so a stall that delays
/// later sends counts against them too; lateness is how far behind its
/// schedule the writer ran.
#[derive(Clone, Debug)]
pub struct Ledger {
    interval_s: f64,
    sends: Vec<Send>,
}

impl Ledger {
    /// An empty ledger for one send every `interval_s` seconds.
    pub fn new(interval_s: f64) -> Ledger {
        Ledger { interval_s, sends: Vec::new() }
    }

    /// Due offset of the next send.
    pub fn next_due_s(&self) -> f64 {
        self.sends.len() as f64 * self.interval_s
    }

    /// Records the next send.
    pub fn record(&mut self, sent_s: f64, done_s: f64, ok: bool) {
        let due_s = self.next_due_s();
        self.sends.push(Send { due_s, sent_s: sent_s.max(due_s), done_s, ok });
    }

    /// Every recorded send.
    pub fn sends(&self) -> &[Send] {
        &self.sends
    }

    /// Latency from due time per send in ms; a failed send is `+inf` (it
    /// misses every latency limit).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.sends
            .iter()
            .map(|s| if s.ok { (s.done_s - s.due_s) * 1e3 } else { f64::INFINITY })
            .collect()
    }

    /// How late each send left, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.sends.iter().map(|s| (s.sent_s - s.due_s) * 1e3).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(seed: u64, stream: u64) -> Vec<String> {
        let mut g = QueryGen::new(seed, stream, 350, 28);
        (0..500).map(|_| g.next_query().body()).collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(bodies(7, 0), bodies(7, 0));
        assert_ne!(bodies(7, 0), bodies(8, 0));
        assert_ne!(bodies(7, 0), bodies(7, 1));
    }

    #[test]
    fn queries_stay_in_range_and_mix_kinds() {
        let mut g = QueryGen::new(3, 0, 350, 28);
        let (mut ent, mut rel, mut inverse) = (0, 0, 0);
        for _ in 0..10_000 {
            match g.next_query() {
                QuerySpec::Entity { subject, relation } => {
                    assert!(subject < 350 && relation < 56);
                    ent += 1;
                    inverse += usize::from(relation >= 28);
                }
                QuerySpec::Relation { subject, object } => {
                    assert!(subject < 350 && object < 350);
                    rel += 1;
                }
            }
        }
        assert!((3150..3500).contains(&rel), "relation share {rel}");
        assert!(inverse > ent / 3 && inverse < 2 * ent / 3);
    }

    #[test]
    fn query_bodies_parse_as_the_server_expects() {
        let b = QuerySpec::Entity { subject: 3, relation: 30 }.body();
        let v = retia_json::parse(&b).unwrap();
        assert_eq!(v.get("k").and_then(retia_json::Value::as_usize), Some(TOP_K));
        let q = &v.get("queries").unwrap().as_array().unwrap()[0];
        assert_eq!(q.get("relation").and_then(retia_json::Value::as_u64), Some(30));
    }

    fn groups(seed: u64) -> Vec<(u32, Vec<Quad>)> {
        let mut rng = Rng::new(seed, 0);
        (0..30u32)
            .map(|t| {
                let n = 1 + rng.below(9) as usize;
                let facts = (0..n)
                    .map(|_| {
                        Quad::new(
                            rng.below(50) as u32,
                            rng.below(5) as u32,
                            rng.below(50) as u32,
                            t,
                        )
                    })
                    .collect();
                (t, facts)
            })
            .collect()
    }

    #[test]
    fn ingest_stream_is_deterministic_and_complete() {
        let plan = ingest_plan(&groups(11), 10);
        let again = ingest_plan(&groups(11), 10);
        let text = |p: &IngestPlan| p.batches.iter().map(|b| ingest_body(b)).collect::<Vec<_>>();
        assert_eq!(text(&plan), text(&again));
        assert_ne!(text(&plan), text(&ingest_plan(&groups(12), 10)));
        // Boot plus batches is every fact, in timestamp order, each once.
        let all: Vec<Quad> = groups(11).into_iter().flat_map(|(_, g)| g).collect();
        let replayed: Vec<Quad> =
            plan.boot.iter().chain(plan.batches.iter().flatten()).copied().collect();
        assert_eq!(all, replayed);
        assert!(plan.boot.iter().all(|q| q.t < 10));
        // Two batches per multi-fact timestamp, one for a single fact.
        let expected: usize = groups(11)[10..].iter().map(|(_, g)| g.len().min(2)).sum();
        assert_eq!(plan.batches.len(), expected);
    }

    #[test]
    fn ingest_bodies_round_trip() {
        let batch = vec![Quad::new(1, 2, 3, 40), Quad::new(4, 5, 6, 40)];
        let v = retia_json::parse(&ingest_body(&batch)).unwrap();
        let facts = v.get("facts").unwrap().as_array().unwrap();
        assert_eq!(facts.len(), 2);
        assert_eq!(facts[1].get("object").and_then(retia_json::Value::as_u64), Some(6));
    }

    #[test]
    fn ledger_times_latency_from_due_and_counts_lateness() {
        let mut l = Ledger::new(0.15);
        // On time, 40 ms service.
        l.record(0.0, 0.04, true);
        // A 400 ms stall: the send due at 0.15 s finishes at 0.55 s ...
        l.record(0.15, 0.55, true);
        // ... so the one due at 0.30 s leaves late, at 0.55 s.
        l.record(0.55, 0.59, true);
        // A send "early" is clamped to its due time.
        l.record(0.40, 0.49, true);
        l.record(0.60, 0.61, false);
        let lat = l.latencies_ms();
        assert!((lat[0] - 40.0).abs() < 1e-9);
        assert!((lat[1] - 400.0).abs() < 1e-9);
        assert!((lat[2] - 290.0).abs() < 1e-9, "latency counts the stall it inherited");
        assert!((lat[3] - 40.0).abs() < 1e-9);
        assert_eq!(lat[4], f64::INFINITY);
        let late = l.lateness_ms();
        assert!((late[2] - 250.0).abs() < 1e-9);
        assert_eq!(late[0], 0.0);
        assert_eq!(late[3], 0.0);
        assert!((l.next_due_s() - 0.75).abs() < 1e-12);
    }
}
