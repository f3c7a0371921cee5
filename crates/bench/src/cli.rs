//! The `hero` CLI's strict flag layer: every subcommand declares its flags
//! in one table (name, whether the flag takes a value, default) plus the
//! rules between them. Parsing rejects unknown, duplicate and valueless
//! flags, stray arguments and flags that would have no effect, so a typo
//! or a stray flag fails loudly instead of running with a default.

use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Every subcommand's failure type: flag errors, tensor and artifact
/// errors and I/O errors all surface as one `error: ...` line.
pub type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// One subcommand: its name, the leading words it accepts (`artifact
/// inspect`, `repro <target>`; empty when the flags follow the name), its
/// flag table, the rules between its flags, and its body.
///
/// `flags` declares every accepted flag, space-separated: `name=default`
/// takes a value with that default, `name=` takes a value and has no
/// default, and a bare `name` is a switch. Each `needs` entry `(flag,
/// others)` rejects `--flag` given without any of the space-separated
/// `others` (alone it would have no effect); each `excludes` entry rejects
/// any of `others` next to `--flag`, which fixes what they would pick.
pub struct Command {
    /// The subcommand's name.
    pub name: &'static str,
    /// The leading words it accepts (empty when the flags follow the name).
    pub words: &'static [&'static str],
    /// Every accepted flag, with its default.
    pub flags: &'static str,
    /// `(flag, others)`: `--flag` needs one of `others`.
    pub needs: &'static [(&'static str, &'static str)],
    /// `(flag, others)`: none of `others` may come with `--flag`.
    pub excludes: &'static [(&'static str, &'static str)],
    /// The body.
    pub run: fn(&Opts) -> CliResult,
}

/// Resolves the subcommand of `args` in `commands`, parses its flags
/// against its table, checks its flag rules, and runs it inside an obs run
/// named after it; `help` (or no command) prints `usage`.
pub fn run(commands: &[Command], usage: &str, args: &[String]) -> CliResult {
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| format!("no command given\n\n{usage}"))?;
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{usage}");
        return Ok(());
    }
    let cmd = commands
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\n\n{usage}"))?;
    // `artifact` and `repro` name one word (a subcommand or a target)
    // before their flags.
    let (word, flags) = if cmd.words.is_empty() {
        (None, rest)
    } else {
        let first = rest.first().map_or("", String::as_str);
        let word = cmd.words.iter().find(|w| **w == first).ok_or_else(|| {
            let expected = cmd.words.join("|");
            match first {
                "" => format!("hero {name}: expected one of {expected}"),
                _ => format!("hero {name}: unknown `{first}` (expected one of {expected})"),
            }
        })?;
        (Some(*word), &rest[1..])
    };
    let opts = Opts::parse(cmd.name, word, cmd.flags, flags)?;
    for (flag, others) in cmd.needs {
        if opts.has(flag) && !others.split_whitespace().any(|other| opts.has(other)) {
            let others = others.replace(' ', " or --");
            return Err(format!("hero {name}: --{flag} has no effect without --{others}").into());
        }
    }
    for (flag, others) in cmd.excludes {
        if let Some(other) = others
            .split_whitespace()
            .find(|o| opts.has(flag) && opts.has(o))
        {
            return Err(format!("hero {name}: --{other} cannot be combined with --{flag}").into());
        }
    }
    // Repro runs keep their `repro_<target>` trace file names.
    let run_name = match word {
        Some(t) if cmd.name == "repro" => format!("repro_{}", t.replace('-', "_")),
        Some(w) => format!("hero_{name}-{w}"),
        None => format!("hero_{name}"),
    };
    hero_obs::init_from_env(&run_name);
    let result = (cmd.run)(&opts);
    hero_obs::finish();
    result
}

/// One subcommand's parsed command line, checked against its table.
pub struct Opts {
    cmd: &'static str,
    /// The leading word, for commands that take one.
    pub word: Option<&'static str>,
    flags: &'static str,
    /// Flags given on the command line, in order (switches map to "").
    given: Vec<(&'static str, String)>,
}

impl Opts {
    fn parse(
        cmd: &'static str,
        word: Option<&'static str>,
        flags: &'static str,
        args: &[String],
    ) -> Result<Self, String> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("hero {cmd}: unexpected argument `{arg}`"));
            };
            let decl = flags
                .split_whitespace()
                .find(|d| d.split('=').next() == Some(key))
                .ok_or_else(|| format!("hero {cmd}: unknown flag `--{key}`"))?;
            let name = decl.split('=').next().unwrap_or(decl);
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("hero {cmd}: `--{name}` given more than once"));
            }
            let value = if decl.contains('=') {
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("hero {cmd}: `--{name}` needs a value"))?
                    .clone()
            } else {
                String::new()
            };
            given.push((name, value));
        }
        Ok(Opts {
            cmd,
            word,
            flags,
            given,
        })
    }

    /// True when `--name` was given on the command line.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's given value, else its declared default.
    pub fn get(&self, name: &str) -> Option<&str> {
        match self.given.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => Some(v),
            None => self
                .flags
                .split_whitespace()
                .find_map(|d| d.split_once('=').filter(|(n, _)| *n == name))
                .map(|(_, default)| default)
                .filter(|default| !default.is_empty()),
        }
    }

    /// The flag's value (given or default) as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    /// Parses the flag's value, if it has one.
    pub fn opt_num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("hero {}: --{name}: cannot parse `{v}`", self.cmd))
            })
            .transpose()
    }

    /// Parses the flag's value, which must have one (given or default).
    pub fn num<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt_num(name)?
            .ok_or_else(|| format!("hero {}: --{name} is required", self.cmd))
    }

    /// Parses each comma-separated item of the flag's value.
    pub fn list<T>(&self, name: &str, item: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
        let list = self.get(name).unwrap_or_default();
        list.split(',')
            .map(|t| {
                item(t.trim())
                    .ok_or_else(|| format!("hero {}: --{name}: invalid value `{t}`", self.cmd))
            })
            .collect()
    }

    /// Parses a comma-separated list of bit widths.
    pub fn bits(&self, name: &str) -> Result<Vec<u8>, String> {
        self.list(name, |t| t.parse().ok())
    }

    /// Maps each comma-separated name of the flag's value through `table`.
    pub fn names<T: Copy>(&self, name: &str, table: &[(&str, T)]) -> Result<Vec<T>, String> {
        self.list(name, |t| {
            table.iter().find(|(n, _)| *n == t).map(|&(_, v)| v)
        })
    }

    /// Maps the flag's single value through `table`.
    pub fn one<T: Copy>(&self, name: &str, table: &[(&str, T)]) -> Result<T, String> {
        match self.names(name, table)?[..] {
            [v] => Ok(v),
            _ => Err(format!("hero {}: --{name} takes one value", self.cmd)),
        }
    }
}

/// Writes `text` to `path`, creating its parent directory.
pub fn write_file(path: &Path, text: &str) -> CliResult {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)?;
    Ok(())
}
