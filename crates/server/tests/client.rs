//! `Client` against stub servers: the exact request bytes, id checking,
//! and a peer that hangs up without replying.

use domatic_server::Client;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;

/// A one-connection stub: reads each request line, records it, and
/// answers it with `reply(line)` (or hangs up when that is `None`).
/// Joining returns the request lines it saw.
fn stub(reply: fn(&str) -> Option<String>) -> (String, JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut seen = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                return seen;
            }
            seen.push(line.clone());
            match reply(&line) {
                Some(response) => stream.write_all(response.as_bytes()).unwrap(),
                None => return seen,
            }
        }
    });
    (addr, handle)
}

/// Echoes the request's id prefix back as an `ok` response.
fn echo(line: &str) -> Option<String> {
    let id_prefix = &line[..line.find(',').unwrap()];
    Some(format!("{id_prefix},\"ok\":true,\"result\":{{}}}}\r\n"))
}

#[test]
fn requests_number_ids_from_one_and_trim_the_response() {
    let (addr, handle) = stub(echo);
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(
        client.request("\"op\":\"ping\"").unwrap(),
        "{\"id\":1,\"ok\":true,\"result\":{}}"
    );
    assert_eq!(
        client.request("\"op\":\"stats\"").unwrap(),
        "{\"id\":2,\"ok\":true,\"result\":{}}"
    );
    client.send("{\"id\":7,\"op\":\"ping\"}").unwrap();
    assert!(client.recv().unwrap().starts_with("{\"id\":7,"));
    drop(client);
    assert_eq!(
        handle.join().unwrap(),
        [
            "{\"id\":1,\"op\":\"ping\"}\n",
            "{\"id\":2,\"op\":\"stats\"}\n",
            "{\"id\":7,\"op\":\"ping\"}\n",
        ]
    );
}

#[test]
fn a_response_with_the_wrong_id_is_an_error() {
    // `{"id":1` is a prefix of `{"id":12`: the check must not accept it.
    let (addr, handle) = stub(|_| Some("{\"id\":12,\"ok\":true,\"result\":{}}\n".to_string()));
    let mut client = Client::connect(&addr).unwrap();
    let err = client.request("\"op\":\"ping\"").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("id 1"), "{err}");
    drop(client);
    handle.join().unwrap();
}

#[test]
fn a_peer_that_hangs_up_without_replying_is_an_error() {
    let (addr, handle) = stub(|_| None);
    let mut client = Client::connect(&addr).unwrap();
    let err = client.request("\"op\":\"ping\"").unwrap_err();
    assert!(err.to_string().contains("closed"), "{err}");
    handle.join().unwrap();
}
