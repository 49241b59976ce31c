//! Soak test: a sustained mixed workload over the TCP transport with
//! fault injection — malformed frames, oversized frames, full queues,
//! and mid-request disconnects — asserting the service neither panics
//! nor leaks: every in-flight slot is returned, the memo cache never
//! grows past its capacity, and a healthy request still round-trips
//! after the abuse.
//!
//! Kept time-boxed (a few seconds) so CI can run it on every push; the
//! repository benchmark's `serve-open` workload is the place for
//! sustained load and latency.

use mlv_serve::{listen, ServeConfig, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

fn small_service() -> Arc<Service> {
    Arc::new(Service::new(ServeConfig {
        queue_depth: 4,
        cache_capacity: 8,
        max_frame_bytes: 4096,
        ..ServeConfig::default()
    }))
}

/// One well-formed request of each kind, cycled by the clients.
fn request(i: usize) -> String {
    match i % 6 {
        0 => format!(
            "{{\"id\":{i},\"kind\":\"realize\",\"family\":\"hypercube:3\",\"layers\":4}}"
        ),
        1 => format!("{{\"id\":{i},\"kind\":\"check\",\"family\":\"mesh:3,3\"}}"),
        2 => format!(
            "{{\"id\":{i},\"kind\":\"metrics\",\"family\":\"hypercube:3\",\"pdk\":\"hv6\"}}"
        ),
        3 => format!(
            "{{\"id\":{i},\"kind\":\"sweep-shard\",\"seed\":7,\"cases\":1,\"shard\":0,\"shards\":4}}"
        ),
        4 => format!("{{\"id\":{i},\"kind\":\"profile\",\"family\":\"hypercube:3\"}}"),
        _ => format!("{{\"id\":{i},\"kind\":\"stats\"}}"),
    }
}

#[test]
fn soak_mixed_workload_with_fault_injection() {
    let service = small_service();
    let server = listen(Arc::clone(&service), "127.0.0.1:0", 16).expect("bind");
    let addr = server.addr();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            thread::spawn(move || {
                let mut responses = 0usize;
                let mut busy = 0usize;
                for round in 0..3 {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut sent = 0usize;
                    for i in 0..25 {
                        let n = c * 1000 + round * 100 + i;
                        writer.write_all(request(n).as_bytes()).unwrap();
                        writer.write_all(b"\n").unwrap();
                        sent += 1;
                        // fault injection interleaved with real work
                        match i % 5 {
                            0 => {
                                // malformed frame: still gets a response
                                writer.write_all(b"{not json]\n").unwrap();
                                sent += 1;
                            }
                            1 => {
                                // oversized frame: discarded, error frame back
                                let huge = vec![b'z'; 8192];
                                writer.write_all(&huge).unwrap();
                                writer.write_all(b"\n").unwrap();
                                sent += 1;
                            }
                            _ => {}
                        }
                    }
                    if round == 2 && c % 2 == 0 {
                        // mid-request disconnect: fire a request and
                        // hang up without reading the response
                        writer.write_all(request(c).as_bytes()).unwrap();
                        writer.write_all(b"\n").unwrap();
                        drop(writer);
                        continue;
                    }
                    // half-close the write side so the server sees EOF
                    // and drains; then count every response frame
                    stream_shutdown_write(&writer);
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {
                                assert!(
                                    line.starts_with('{') && line.trim_end().ends_with('}'),
                                    "torn frame: {line:?}"
                                );
                                if line.contains("\"error\":\"busy\"") {
                                    busy += 1;
                                    assert!(line.contains("retry_after_ms"), "{line}");
                                }
                                responses += 1;
                            }
                        }
                    }
                    // with a drained connection, one response per frame
                    assert_eq!(responses, sent, "client {c} round {round}");
                    responses = 0;
                }
                busy
            })
        })
        .collect();

    let mut total_busy = 0usize;
    for c in clients {
        total_busy += c.join().expect("client panicked");
    }

    server.shutdown();

    // no leaked request slots, no cache growth past capacity
    assert_eq!(service.in_flight(), 0, "leaked in-flight slots");
    assert!(
        service.cache_len() <= 8,
        "cache grew past capacity: {}",
        service.cache_len()
    );
    // the service still answers cleanly after the abuse
    let stats = service.handle_line("{\"id\":1,\"kind\":\"stats\"}");
    assert!(stats.contains("\"ok\":true"), "{stats}");
    assert!(stats.contains("\"cache_len\":"), "{stats}");
    // the malformed frames were counted, and the queue really was
    // exercised (sheds are workload-dependent, so only log them)
    assert!(stats.contains("serve.malformed"), "{stats}");
    eprintln!("soak: {total_busy} busy frames observed");
}

fn stream_shutdown_write(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

#[test]
fn over_capacity_connections_get_busy_frame() {
    let service = small_service();
    let server = listen(Arc::clone(&service), "127.0.0.1:0", 1).expect("bind");
    let addr = server.addr();

    {
        // first connection occupies the only slot
        let first = TcpStream::connect(addr).expect("connect");
        let mut fr = BufReader::new(first.try_clone().expect("clone"));
        (&first)
            .write_all(b"{\"id\":1,\"kind\":\"stats\"}\n")
            .unwrap();
        let mut line = String::new();
        fr.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");

        // second connection is shed with one busy frame and closed
        let second = TcpStream::connect(addr).expect("connect");
        let mut sr = BufReader::new(second);
        let mut busy = String::new();
        sr.read_line(&mut busy).unwrap();
        assert!(busy.contains("\"error\":\"busy\""), "{busy}");
        assert!(busy.contains("retry_after_ms"), "{busy}");
        let mut rest = String::new();
        assert_eq!(sr.read_line(&mut rest).unwrap(), 0, "stream must close");
        // both client streams drop here, so the server's connection
        // thread sees EOF and shutdown below can join it
    }
    server.shutdown();
    assert_eq!(service.in_flight(), 0);
}
