//! Pipelined request/response replies over real TCP must not wait for the
//! client's delayed ACK.
//!
//! A client that sends two requests in one segment gets the first reply at
//! once; if the server socket keeps Nagle, the second reply (or the
//! newline of a reply written in two pieces) is held until the client ACKs
//! the first, and Linux delays that ACK by up to ≈ 40 ms once the
//! connection has left quick-ACK mode. The warm-up below gets it there, so
//! a server that does not push its replies reads ≈ 40 ms per round here.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taser_graph::events::EventLog;
use taser_graph::feats::FeatureMatrix;
use taser_models::artifact::{ArtifactBackbone, ArtifactPolicy, ModelArtifact, ModelSpec};
use taser_serve::{protocol, ServeConfig, ServeEngine};

const WARMUP: usize = 64;
const ROUNDS: usize = 7;

fn engine() -> ServeEngine {
    let log = EventLog::from_unsorted(
        (0..120u32)
            .map(|i| (i % 8, 8 + (i * 3) % 8, 1.0 + f64::from(i) * 0.25))
            .collect(),
    );
    let spec = ModelSpec {
        backbone: ArtifactBackbone::GraphMixer,
        in_dim: 4,
        edge_dim: 0,
        hidden: 16,
        time_dim: 8,
        heads: 2,
        n_neighbors: 5,
        dropout: 0.0,
        policy: ArtifactPolicy::MostRecent,
    };
    let feats = FeatureMatrix::from_vec((0..16 * 4).map(|x| x as f32 * 0.01).collect(), 4);
    let artifact = ModelArtifact::init(spec, Some(feats), None, 5);
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    ServeEngine::new(artifact, log, config).expect("engine")
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("client nodelay");
        writer
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn send(&mut self, lines: &str) {
        self.writer.write_all(lines.as_bytes()).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).expect("reply") > 0, "EOF");
        line.truncate(line.trim_end().len());
        line
    }

    /// Median time from one write carrying `pair` (two request lines) to
    /// both replies read, over `ROUNDS` rounds; `check` sees each pair.
    fn pipelined_median(&mut self, pair: &str, check: impl Fn(&str, &str)) -> Duration {
        let mut took: Vec<Duration> = (0..ROUNDS)
            .map(|_| {
                let t0 = Instant::now();
                self.send(pair);
                let (a, b) = (self.recv(), self.recv());
                let elapsed = t0.elapsed();
                check(&a, &b);
                elapsed
            })
            .collect();
        took.sort();
        took[ROUNDS / 2]
    }
}

#[test]
fn pipelined_replies_are_not_held_for_the_delayed_ack() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Arc::new(engine());
    // serve_tcp never returns; the accept thread ends with the process
    std::thread::spawn(move || protocol::serve_tcp(engine, listener));
    let mut client = Client::connect(&addr);

    for i in 0..WARMUP {
        client.send(&format!("query {} {} 40\n", i % 8, 8 + i % 8));
        assert!(client.recv().starts_with("score "));
    }
    let queries = client.pipelined_median("query 1 9 40\nquery 2 10 40\n", |a, b| {
        assert!(
            a.starts_with("score ") && b.starts_with("score "),
            "{a} / {b}"
        );
    });
    let stats_digest = client.pipelined_median("stats\ndigest\n", |a, b| {
        assert!(a.starts_with("{\"queries\":"), "{a}");
        assert!(b.starts_with("digest "), "{b}");
    });
    for (what, median) in [("query + query", queries), ("stats + digest", stats_digest)] {
        assert!(
            median < Duration::from_millis(10),
            "{what}: median {median:?} over {ROUNDS} rounds — a reply waited for the delayed ACK"
        );
    }

    // the session-error counter is part of the scrape (`repl` marks its end)
    client.send("metrics\nrepl\n");
    let mut scrape = Vec::new();
    loop {
        let line = client.recv();
        if line.starts_with("{\"role\":") {
            break;
        }
        scrape.push(line);
    }
    assert!(
        scrape
            .iter()
            .any(|l| l.starts_with("taser_protocol_session_errors_total ")),
        "{scrape:?}"
    );
}
