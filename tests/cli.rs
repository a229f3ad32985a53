//! The `prophet` binary end to end: the three invocations the verify
//! skill drives by hand, as exit codes and the lines a reader looks for.

use std::process::{Command, Output};

fn prophet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(["--demo", "--worlds", "8"])
        .args(args)
        .output()
        .expect("invariant: the prophet binary was built alongside this test")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn online_demo_renders_the_figure3_chart() {
    let out = prophet(&["--mode", "online"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("render: 53 weeks"), "{text}");
    assert!(text.contains("EXPECT overload"), "{text}");
}

#[test]
fn offline_demo_maps_every_cell_of_the_figure4_slice() {
    let out = prophet(&["--mode", "offline", "--map", "purchase1,purchase2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("== offline: "), "{text}");
    // Map rows are `<purchase2> | <one glyph per purchase1>`; `.` is pending.
    let rows: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_once(" | "))
        .map(|(_, cells)| cells)
        .collect();
    assert_eq!(rows.len(), 14, "{text}");
    for cells in rows {
        assert!(!cells.contains('.'), "pending cell in `{cells}`\n{text}");
    }
}

#[test]
fn unknown_slider_is_one_typed_error_line() {
    let out = prophet(&["--mode", "online", "--set", "nope=3"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(stdout(&out), "");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "prophet: unknown parameter @nope (valid: feature, purchase1, purchase2)\n"
    );
}
