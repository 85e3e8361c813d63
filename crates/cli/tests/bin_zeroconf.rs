//! End-to-end tests of the `zeroconf` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn zeroconf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zeroconf"))
}

const SCENARIO: [&str; 12] = [
    "--hosts",
    "1000",
    "--probe-cost",
    "2",
    "--error-cost",
    "1e35",
    "--loss",
    "1e-15",
    "--rate",
    "10",
    "--delay",
    "1",
];

#[test]
fn cost_command_prints_the_paper_numbers() {
    let output = zeroconf()
        .arg("cost")
        .args(SCENARIO)
        .args(["--probes", "4", "--listen", "2"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("16.06"), "{stdout}");
    assert!(stdout.contains("e-50"), "{stdout}");
}

#[test]
fn optimize_command_succeeds() {
    let output = zeroconf()
        .arg("optimize")
        .args(SCENARIO)
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("joint optimum: n = 3"), "{stdout}");
}

#[test]
fn engine_subcommand_serves_json_lines_end_to_end() {
    let mut child = zeroconf()
        .args(["engine", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let request = concat!(
        "{\"id\":\"fig2\",\"scenario\":{\"hosts\":1000,\"probe_cost\":2.0,\"error_cost\":1e35,",
        "\"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-15,\"rate\":10.0,\"delay\":1.0}},",
        "\"grid\":{\"n_max\":8,\"r_min\":0.1,\"r_max\":30.0,\"r_points\":50}}\n",
        "{\"id\":\"cheap\",\"rescore\":{\"of\":\"fig2\",\"error_cost\":1e20}}\n",
    );
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(request.as_bytes())
        .expect("write requests");
    let output = child.wait_with_output().expect("binary exits");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("\"id\":\"fig2\""), "{}", lines[0]);
    assert!(lines[0].contains("\"cache_misses\":50"), "{}", lines[0]);
    assert!(
        lines[1].contains("\"cache_misses\":0"),
        "rescore must be served from cache: {}",
        lines[1]
    );
    assert!(lines[2].contains("\"requests\":2"), "{}", lines[2]);
}

/// A line is answered while stdin stays open: the session reads a line
/// at a time and writes each answer once it is ready, not at EOF. Closing
/// stdin then ends the session with exit 0.
#[test]
fn engine_answers_a_line_while_stdin_stays_open() {
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;
    use std::time::Duration;

    let mut child = zeroconf()
        .arg("engine")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let (line, answered) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for answer in BufReader::new(stdout).lines() {
            let _ = line.send(answer.expect("UTF-8 answers"));
        }
    });
    stdin
        .write_all(
            concat!(
                "{\"id\":\"live\",\"scenario\":{\"hosts\":1000,\"probe_cost\":2.0,",
                "\"error_cost\":1e35,\"reply_time\":{\"kind\":\"exponential\",",
                "\"loss\":1e-15,\"rate\":10.0,\"delay\":1.0}},",
                "\"grid\":{\"n_max\":4,\"r_min\":0.5,\"r_max\":3.0,\"r_points\":6}}\n",
            )
            .as_bytes(),
        )
        .expect("write the sweep");
    stdin.flush().expect("flush the sweep");
    let first = answered.recv_timeout(Duration::from_secs(10));
    if first.is_err() {
        let _ = child.kill();
    }
    let first = first.expect("an answer within 10 s while stdin stays open");
    assert!(first.contains("\"id\":\"live\""), "{first}");
    assert!(first.contains("\"cells\""), "{first}");
    drop(stdin);
    let status = child.wait().expect("binary exits");
    assert!(status.success(), "{status:?}");
    reader.join().expect("stdout reader");
    assert_eq!(answered.try_iter().count(), 0, "one line, one answer");
}

#[test]
fn bad_flags_fail_with_message_on_stderr() {
    let output = zeroconf()
        .args(["cost", "--hosts"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("requires a value"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let output = zeroconf().arg("help").output().expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("usage: zeroconf"));
}

/// A seeded corpus with every verb: a sweep over a shuffled `r` list with
/// twins and both zeros, a rescore, a calibrate and a frontier of it, a
/// 64 × 400 inline frontier, a mixture sweep, a malformed line, a repeat
/// of the first sweep and a cancel of a finished request.
fn seeded_corpus(seed: u64) -> String {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut rs: Vec<f64> = (0..40).map(|_| rng.gen_range(0.01..6.0)).collect();
    for _ in 0..8 {
        let twin = rs[rng.gen_range(0..rs.len())];
        rs.push(twin);
    }
    rs.extend([-0.0, 0.0, 0.0]);
    for i in (1..rs.len()).rev() {
        rs.swap(i, rng.gen_range(0..i + 1));
    }
    let r_list = rs
        .iter()
        .map(|r| format!("{r:?}"))
        .collect::<Vec<_>>()
        .join(",");
    let exponential = |rng: &mut StdRng| {
        format!(
            "{{\"kind\":\"exponential\",\"loss\":{:?},\"rate\":{:?},\"delay\":{:?}}}",
            10f64.powf(-rng.gen_range(3.0..15.0)),
            rng.gen_range(2.0..20.0),
            rng.gen_range(0.0..0.5)
        )
    };
    let scenario = |rng: &mut StdRng, reply_time: &str| {
        format!(
            "{{\"q\":{:?},\"probe_cost\":{:?},\"error_cost\":{:?},\"reply_time\":{reply_time}}}",
            10f64.powf(rng.gen_range(-4.0..-1.0)),
            rng.gen_range(0.5..4.0),
            10f64.powf(rng.gen_range(3.0..18.0))
        )
    };
    let axes = |rng: &mut StdRng| {
        let e0 = 10f64.powf(rng.gen_range(2.0..4.0));
        let c0 = rng.gen_range(0.2..1.0);
        let x: Vec<String> = (0..16)
            .map(|k| format!("{:?}", e0 * 10f64.powf(0.75 * f64::from(k))))
            .collect();
        let y: Vec<String> = (0..16)
            .map(|k| format!("{:?}", c0 * (1.0 + 0.5 * f64::from(k))))
            .collect();
        format!(
            "\"x\":{{\"axis\":\"error_cost\",\"values\":[{}]}},\
             \"y\":{{\"axis\":\"probe_cost\",\"values\":[{}]}}",
            x.join(","),
            y.join(",")
        )
    };
    let reply_time = exponential(&mut rng);
    let base = scenario(&mut rng, &reply_time);
    let sweep = format!(
        "{{\"v\":1,\"id\":\"s1\",\"scenario\":{base},\"grid\":{{\"n_max\":12,\"r\":[{r_list}]}}}}"
    );
    let inline_reply_time = exponential(&mut rng);
    let inline = scenario(&mut rng, &inline_reply_time);
    let mixture = format!(
        "{{\"kind\":\"mixture\",\"components\":[{{\"weight\":0.7,\"dist\":{}}},\
         {{\"weight\":0.3,\"dist\":{{\"kind\":\"weibull\",\"mass\":0.999,\"shape\":1.5,\
         \"scale\":0.4,\"delay\":0.1}}}}]}}",
        exponential(&mut rng)
    );
    let mixed = scenario(&mut rng, &mixture);
    // A calibrate target needs a grid neighbor on each side: an interior
    // `r` whose first occurrence is where it stands.
    let target_r = (1..rs.len() - 1)
        .map(|k| (k, rs[k]))
        .find(|&(k, r)| r > 0.5 && rs.iter().position(|x| x.to_bits() == r.to_bits()) == Some(k))
        .map_or(1.0, |(_, r)| r);
    [
        sweep.clone(),
        format!(
            "{{\"v\":1,\"id\":\"r1\",\"rescore\":{{\"of\":\"s1\",\"error_cost\":{:?}}}}}",
            10f64.powf(rng.gen_range(3.0..18.0))
        ),
        format!("{{\"v\":1,\"id\":\"k1\",\"calibrate\":{{\"of\":\"s1\",\"n\":3,\"r\":{target_r:?}}}}}"),
        format!("{{\"v\":1,\"id\":\"f1\",\"frontier\":{{\"of\":\"s1\",{}}}}}", axes(&mut rng)),
        format!(
            "{{\"v\":1,\"id\":\"f2\",\"scenario\":{inline},\
             \"grid\":{{\"n_max\":64,\"r_min\":0.02,\"r_max\":8.0,\"r_points\":400}},\
             \"frontier\":{{{}}}}}",
            axes(&mut rng)
        ),
        format!(
            "{{\"v\":1,\"id\":\"s2\",\"scenario\":{mixed},\"grid\":{{\"n_max\":6,\"r\":[{r_list}]}}}}"
        ),
        "{\"v\":1,\"id\":\"bad\",\"scenario\":{}}".to_owned(),
        sweep.replace("\"id\":\"s1\"", "\"id\":\"s3\""),
        "{\"v\":1,\"id\":\"c1\",\"cancel\":\"s2\"}".to_owned(),
    ]
    .join("\n")
        + "\n"
}

/// `out` with the value of every `"wall_ns"` and pipeline `*_ns_*`
/// counter replaced by `_`: the only bytes a timing can move.
fn mask_timings(out: &str) -> String {
    let keys = [
        "wall_ns",
        "queue_ns_total",
        "queue_ns_max",
        "service_ns_total",
        "service_ns_max",
    ];
    keys.iter().fold(out.to_owned(), |text, key| {
        let needle = format!("\"{key}\":");
        let mut parts = text.split(needle.as_str());
        let mut masked = parts.next().unwrap_or_default().to_owned();
        for part in parts {
            masked.push_str(&needle);
            masked.push('_');
            masked.push_str(part.trim_start_matches(|c: char| c.is_ascii_digit()));
        }
        masked
    })
}

/// One seeded corpus through `zeroconf engine --inflight 1 --stats`,
/// twice: the answers must be the same bytes but for timings. The cache
/// counters and `cells_per_worker` are compared as they stand — a sweep
/// runs on one thread, in fixed chunks, and builds each distinct `r` of a
/// chunk once, so none of them may vary from run to run.
#[test]
fn a_seeded_corpus_gets_the_same_bytes_on_every_run() {
    let corpus = seeded_corpus(28);
    let run = || {
        let mut child = zeroconf()
            .args(["engine", "--inflight", "1", "--stats"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("binary runs");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(corpus.as_bytes())
            .expect("write corpus");
        let output = child.wait_with_output().expect("binary exits");
        assert!(output.status.success(), "{output:?}");
        String::from_utf8(output.stdout).expect("UTF-8 answers")
    };
    let first = run();
    let lines: Vec<&str> = first.lines().collect();
    assert_eq!(lines.len(), corpus.lines().count() + 1, "{first}");
    for (line, id) in lines
        .iter()
        .zip(["s1", "r1", "k1", "f1", "f2", "s2", "bad", "s3", "c1"])
    {
        assert!(line.contains(&format!("\"id\":\"{id}\"")), "{line:.300}");
    }
    for line in ["s1", "f2", "s2", "s3"].map(|id| {
        lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap()
    }) {
        assert!(line.contains("\"workers\":1}"), "{line:.300}");
    }
    let stats = lines.last().unwrap();
    let cells = stats
        .split("\"cells\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .expect("the stats line counts cells");
    assert!(
        stats.contains(&format!("\"cells_per_worker\":[{cells}]")),
        "{stats}"
    );
    assert_eq!(mask_timings(&run()), mask_timings(&first));
}

/// `zeroconf engine` with `args`, fed `input` from a thread (the session
/// may end before it has read everything), and everything it wrote.
fn engine_output(args: &[&str], input: Vec<u8>) -> std::process::Output {
    let mut child = zeroconf()
        .arg("engine")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&input);
    });
    let output = child.wait_with_output().expect("binary exits");
    writer.join().expect("stdin writer");
    output
}

/// A line that is not UTF-8 gets one id-less error answer, and the
/// session goes on: the sweeps around it are answered, in input order,
/// and the session exits 0.
#[test]
fn engine_answers_a_line_that_is_not_utf8_and_goes_on() {
    let sweep = |id: &str| zeroconf_engine::testkit::sweep_line(id, 3, &[0.5, 1.0, 2.0]);
    let mut input = format!("{}\n", sweep("a")).into_bytes();
    let bad = sweep("b").replacen("\"b\"", "\"b\u{1}\"", 1);
    input.extend(bad.bytes().map(|b| if b == 1 { 0xFF } else { b }));
    input.extend(format!("\n{}\n", sweep("c")).bytes());
    let output = engine_output(&[], input);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 answers");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("\"id\":\"a\",\"cells\""), "{}", lines[0]);
    assert!(
        lines[1].contains("\"id\":\"\",\"error\":\"input line is not valid UTF-8\""),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"id\":\"c\",\"cells\""), "{}", lines[2]);
}

/// At `--inflight 1` a line of any kind waits while a request is
/// unanswered: a malformed line, a cancel and a stats line sent behind a
/// heavy sweep are answered after it, in input order, so the cancel
/// finds nothing in flight and the sweep keeps its cells.
#[test]
fn engine_takes_each_line_in_its_turn_at_inflight_one() {
    let input = [
        zeroconf_engine::testkit::heavy_sweep_line("heavy", 64, 4000),
        "{\"id\":\"bad\",\"scenario\":{}}".to_owned(),
        "{\"id\":\"c1\",\"cancel\":\"heavy\"}".to_owned(),
        "{\"id\":\"st\",\"stats\":true}".to_owned(),
    ]
    .join("\n")
        + "\n";
    let output = engine_output(&["--inflight", "1"], input.into_bytes());
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 answers");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout:.2000}");
    for (line, id) in lines.iter().zip(["heavy", "bad", "c1", "st"]) {
        assert!(line.contains(&format!("\"id\":\"{id}\"")), "{line:.300}");
    }
    assert!(lines[0].contains("\"cells\""), "{:.300}", lines[0]);
    assert!(
        lines[2].contains("no in-flight request with id `heavy`"),
        "{}",
        lines[2]
    );
    assert!(lines[3].contains("\"pending\":0"), "{}", lines[3]);
}

/// Waits up to 30 s for `child` to exit, killing it and failing past that.
fn exit_within_30_s(child: &mut std::process::Child, why: &str) -> std::process::ExitStatus {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("child status") {
            return status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("zeroconf engine still runs 30 s after {why}");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// A line over the input-line bound gets the daemon's one id-less error
/// after every earlier line's answer, and ends the session: the sweep
/// behind it is not answered, the exit status says the session was cut
/// short, and the process does not wait for its stdin, held open here,
/// to close.
#[test]
fn engine_refuses_an_over_long_line_and_exits_non_zero() {
    use std::io::Read;

    let sweep = |id: &str| zeroconf_engine::testkit::sweep_line(id, 3, &[0.5, 1.0, 2.0]);
    let mut input = format!("{}\n", sweep("first")).into_bytes();
    input.resize(input.len() + 5 * 1024 * 1024, b'x');
    input.extend(format!("\n{}\n", sweep("late")).bytes());
    let mut child = zeroconf()
        .arg("engine")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let (release, held) = std::sync::mpsc::channel::<()>();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&input);
        let _ = held.recv();
    });
    let status = exit_within_30_s(&mut child, "refusing a line, with stdin open");
    drop(release);
    writer.join().expect("stdin writer");
    assert!(!status.success(), "{status:?}");
    let (mut stdout, mut stderr) = (String::new(), String::new());
    let mut out = child.stdout.take().expect("piped stdout");
    out.read_to_string(&mut stdout).expect("UTF-8 answers");
    let mut err = child.stderr.take().expect("piped stderr");
    err.read_to_string(&mut stderr).expect("stderr");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].contains("\"id\":\"first\",\"cells\""),
        "{}",
        lines[0]
    );
    let refusal = format!(
        "{{\"v\":1,\"id\":\"\",\"error\":\"input line is over the limit of {} bytes\"}}",
        zeroconf_serve::MAX_LINE_BYTES
    );
    assert_eq!(lines[1], refusal);
    assert!(stderr.contains("over the limit"), "{stderr}");
}

/// A reader that closes the session's stdout after one answer ends it:
/// the process exits non-zero within 30 s, saying why, instead of
/// stalling with its answers unread.
#[test]
fn engine_exits_when_its_stdout_closes() {
    use std::io::{BufRead, BufReader, Read};

    let mut child = zeroconf()
        .args(["engine", "--inflight", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || {
        let rs = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
        for k in 0..400 {
            let line = zeroconf_engine::testkit::sweep_line(&format!("s{k}"), 8, &rs);
            if writeln!(stdin, "{line}").is_err() {
                break;
            }
        }
    });
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("one answer");
    assert!(first.contains("\"cells\""), "{first:.300}");
    drop(stdout);
    let status = exit_within_30_s(&mut child, "its stdout closed");
    assert!(!status.success(), "{status:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    assert!(stderr.contains("writing stdout"), "{stderr}");
    writer.join().expect("stdin writer");
}
