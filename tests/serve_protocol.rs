//! Keeps `docs/PROTOCOL.md` honest: the worked transcript in the document is
//! replayed byte-for-byte against the service, and the protocol's edge
//! behaviour (envelope echoing, error codes, end-of-batch shutdown) is
//! pinned through the real serve loop.

use acso::serve::json::JsonValue;
use acso::serve::server::serve;
use acso::serve::service::{EvalService, ServiceConfig};
use acso::serve::transport::ChannelTransport;

const PROTOCOL_DOC: &str = include_str!("../docs/PROTOCOL.md");

/// Extracts the fenced ```jsonl block that follows `marker` in the document.
fn transcript_block(marker: &str) -> Vec<String> {
    let at = PROTOCOL_DOC
        .find(marker)
        .unwrap_or_else(|| panic!("PROTOCOL.md lost its `{marker}` marker"));
    let rest = &PROTOCOL_DOC[at..];
    let open = "```jsonl\n";
    let start = rest
        .find(open)
        .unwrap_or_else(|| panic!("no ```jsonl fence after `{marker}`"))
        + open.len();
    let body = &rest[start..];
    let end = body
        .find("\n```")
        .unwrap_or_else(|| panic!("unterminated fence after `{marker}`"));
    body[..end].lines().map(str::to_string).collect()
}

/// The documented transcript replays byte-for-byte: same requests, same
/// daemon configuration (`--fixed-time --lanes 8 --threads 1`), same bytes
/// out. If the protocol or any number it reports changes, this fails until
/// the document is re-recorded.
#[test]
fn protocol_doc_transcript_replays_byte_for_byte() {
    let inputs = transcript_block("<!-- transcript:input -->");
    let outputs = transcript_block("<!-- transcript:output -->");
    assert_eq!(
        inputs.len(),
        outputs.len(),
        "transcript blocks must pair one request with one response"
    );
    assert!(inputs.len() >= 5, "transcript should exercise the protocol");

    // The transcript was recorded one request at a time, so replay feeds
    // lines individually (each is its own batch).
    let mut service = EvalService::new(ServiceConfig::fixed());
    for (i, (input, expected)) in inputs.iter().zip(&outputs).enumerate() {
        let actual = service.handle_line(input);
        assert_eq!(
            &actual, expected,
            "response {i} diverged from PROTOCOL.md for request: {input}"
        );
    }
}

/// The documented transcript covers the envelope's interesting shapes: a
/// catalog query, a policy load, a successful evaluate with transcripts, an
/// error, a metrics scrape and the shutdown.
#[test]
fn protocol_doc_transcript_covers_the_method_surface() {
    let inputs = transcript_block("<!-- transcript:input -->");
    let methods: Vec<String> = inputs
        .iter()
        .map(|line| {
            JsonValue::parse(line)
                .unwrap()
                .get("method")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    for method in [
        "list_scenarios",
        "load_policy",
        "evaluate",
        "metrics",
        "snapshot",
        "shutdown",
    ] {
        assert!(
            methods.iter().any(|m| m == method),
            "transcript never calls `{method}`"
        );
    }
    let outputs = transcript_block("<!-- transcript:output -->");
    assert!(
        outputs
            .iter()
            .any(|line| line.contains("\"ok\":false") && line.contains("unknown_scenario")),
        "transcript should demonstrate the error envelope"
    );
}

/// Request ids are echoed verbatim whatever their JSON type, including for
/// errors, and a missing id echoes as null.
#[test]
fn request_ids_echo_verbatim() {
    let mut service = EvalService::new(ServiceConfig::fixed());
    for (line, expected_id) in [
        (r#"{"id":"abc","method":"metrics"}"#, r#""abc""#),
        (r#"{"id":{"seq":7},"method":"metrics"}"#, r#"{"seq":7}"#),
        (r#"{"id":3.5,"method":"nope"}"#, "3.5"),
        (r#"{"method":"metrics"}"#, "null"),
    ] {
        let response = service.handle_line(line);
        assert!(
            response.starts_with(&format!(r#"{{"id":{expected_id},"#)),
            "{line} -> {response}"
        );
    }
}

/// Every documented error code is reachable over the wire, and parse errors
/// never take the daemon down.
#[test]
fn documented_error_codes_are_produced_on_the_wire() {
    let mut service = EvalService::new(ServiceConfig::fixed());
    let code_of = |service: &mut EvalService, line: &str| {
        let response = service.handle_line(line);
        let value = JsonValue::parse(&response).unwrap();
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(false));
        value
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(code_of(&mut service, "{oops"), "parse_error");
    assert_eq!(code_of(&mut service, "[1,2]"), "invalid_request");
    assert_eq!(
        code_of(&mut service, r#"{"id":1,"method":"sing"}"#),
        "unknown_method"
    );
    assert_eq!(
        code_of(
            &mut service,
            r#"{"id":1,"method":"evaluate","params":{"scenario":"tiny","episodes":1}}"#
        ),
        "invalid_params"
    );
    assert_eq!(
        code_of(
            &mut service,
            r#"{"id":1,"method":"evaluate","params":{"handle":"ghost@9","scenario":"tiny","episodes":1}}"#
        ),
        "unknown_handle"
    );
    assert_eq!(
        code_of(
            &mut service,
            r#"{"id":1,"method":"load_policy","params":{"policy":"qlearn"}}"#
        ),
        "unknown_policy_kind"
    );
    assert_eq!(
        code_of(
            &mut service,
            r#"{"id":1,"method":"load_policy","params":{"policy":"playbook","scenario":"nowhere"}}"#
        ),
        "unknown_scenario"
    );
    assert_eq!(
        code_of(
            &mut service,
            r#"{"id":1,"method":"load_policy","params":{"policy":"acso","weights":"/no/such/file"}}"#
        ),
        "weights_error"
    );
    // Sizes past the limits are refused before anything is sized by them
    // (2^53 episodes once aborted the process on an allocation).
    assert_eq!(
        code_of(
            &mut service,
            r#"{"id":1,"method":"load_policy","params":{"policy":"playbook","dbn_episodes":9007199254740992}}"#
        ),
        "limit_exceeded"
    );
    let loaded =
        service.handle_line(r#"{"id":1,"method":"load_policy","params":{"policy":"playbook"}}"#);
    let loaded = JsonValue::parse(&loaded).unwrap();
    let handle = loaded
        .get("result")
        .and_then(|r| r.get("handle"))
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    for sizes in [
        r#""episodes":9007199254740992,"max_time":10"#,
        r#""episodes":1,"max_time":9007199254740992"#,
    ] {
        let line = format!(
            r#"{{"id":1,"method":"evaluate","params":{{"handle":"{handle}","scenario":"tiny",{sizes}}}}}"#
        );
        assert_eq!(code_of(&mut service, &line), "limit_exceeded", "{line}");
    }
    assert_eq!(
        code_of(&mut service, r#"{"id":1,"method":"snapshot"}"#),
        "state_error"
    );
    assert_eq!(
        code_of(&mut service, r#"{"id":1,"method":"restore"}"#),
        "state_error"
    );

    // The daemon still answers normal requests after all that abuse.
    let response = service.handle_line(r#"{"id":9,"method":"list_scenarios"}"#);
    assert!(response.starts_with(r#"{"id":9,"ok":true,"#));
}

/// End-to-end through the serve loop and a transport: pipelined requests are
/// answered in order and shutdown ends the session after the batch.
#[test]
fn serve_loop_round_trips_the_documented_session_shape() {
    let (mut transport, client) = ChannelTransport::pair();
    client
        .send_line(r#"{"id":1,"method":"load_policy","params":{"policy":"null"}}"#)
        .unwrap();
    client
        .send_line(
            r#"{"id":2,"method":"evaluate","params":{"handle":"null@1","scenario":"tiny","episodes":1,"max_time":120}}"#,
        )
        .unwrap();
    client.send_line(r#"{"id":3,"method":"shutdown"}"#).unwrap();

    let mut service = EvalService::new(ServiceConfig::fixed());
    let served = serve(&mut service, &mut transport);
    assert_eq!(served, 3);
    for expected_id in 1..=3 {
        let line = client.recv_line().expect("a response per request");
        let value = JsonValue::parse(&line).unwrap();
        assert_eq!(
            value.get("id").and_then(JsonValue::as_u64),
            Some(expected_id)
        );
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(true));
    }
}
