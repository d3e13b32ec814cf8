//! The design-file interpreter (paper §4.1–§4.5).
//!
//! Environments are hash tables in an arena; macros return their frame by
//! handle and the frame outlives the call ("unlike a classical LISP
//! interpreter which disposes of the environment frame when a procedure is
//! exited, environments in design files may have a much greater lifetime",
//! §4.5). Variable lookup follows the paper's chain: current frame →
//! global environment (parameter file) → cell definition table.
//!
//! The tables hash names with [`NameHasher`], a deterministic
//! multiply-rotate hash, and key them by shared `Rc<str>`: binding a
//! procedure's formals and locals copies no string, and a plain
//! variable reference looks up its own text. Procedure bodies are
//! shared too, so a call clones no syntax tree.
//!
//! A design file is run again and again with new parameter files (§4.1),
//! so each thread keeps the last program it parsed, keyed by the whole
//! source text: running the same file again re-lexes and re-parses
//! nothing, and any change to the text parses afresh.

use crate::ast::{Ast, ProcDef, TopLevel, VarRef};
use crate::param::parse_parameter_file;
use crate::parser::parse_program;
use crate::value::{EnvId, Value};
use crate::LangError;
use rsg_core::Rsg;
use rsg_layout::{CellId, CellTable};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// The FxHash rule: per 8-byte word, rotate, xor and multiply. Names are
/// a few bytes long, so this is a handful of cycles where SipHash runs
/// its rounds; it is deterministic, and design files are the designer's
/// own input, so no keyed hash is needed against collision floods.
#[derive(Debug, Clone, Copy, Default)]
struct NameHasher(u64);

impl NameHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*word)));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*word)));
            bytes = rest;
        }
        if let Some(&byte) = bytes.first() {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A name-keyed environment table (§4.5's hash-table frames).
type Names<V> = HashMap<Rc<str>, V, BuildHasherDefault<NameHasher>>;

/// A defined procedure: its shared definition, with the formal and local
/// names as the keys its frames bind.
#[derive(Debug)]
struct Proc {
    def: ProcDef,
    formals: Vec<Rc<str>>,
    locals: Vec<Rc<str>>,
}

/// A parsed design file: its procedures under the names their
/// definitions bind, in file order, and its top-level statements in
/// order.
#[derive(Debug)]
struct Program {
    src: String,
    procs: Vec<(Rc<str>, Rc<Proc>)>,
    stmts: Vec<Ast>,
}

thread_local! {
    /// The last program parsed on this thread (never a parse error).
    static PARSED: RefCell<Option<Rc<Program>>> = const { RefCell::new(None) };
}

/// The parsed program of `src`: this thread's last one when its source
/// text equals `src`, else a fresh parse, which then replaces it.
fn parsed(src: &str) -> Result<Rc<Program>, LangError> {
    let hit = PARSED.with(|p| p.borrow().as_ref().filter(|p| p.src == src).cloned());
    if let Some(program) = hit {
        return Ok(program);
    }
    let mut procs = Vec::new();
    let mut stmts = Vec::new();
    for form in parse_program(src)? {
        match form {
            TopLevel::Proc(def) => {
                let proc = Proc {
                    formals: def.formals.iter().map(|f| Rc::from(f.as_str())).collect(),
                    locals: def.locals.iter().map(|l| Rc::from(l.as_str())).collect(),
                    def,
                };
                procs.push((proc.def.name.as_str().into(), Rc::new(proc)));
            }
            TopLevel::Stmt(stmt) => stmts.push(stmt),
        }
    }
    let program = Rc::new(Program {
        src: src.to_owned(),
        procs,
        stmts,
    });
    PARSED.with(|p| *p.borrow_mut() = Some(Rc::clone(&program)));
    Ok(program)
}

/// Result of running a design file: the generator (cell + interface
/// tables populated), the collected `print` output, and the value of the
/// last top-level statement.
#[derive(Debug)]
pub struct DesignRun {
    /// The generator, holding every built cell.
    pub rsg: Rsg,
    /// Lines produced by `(print ...)`.
    pub output: Vec<String>,
    /// Value of the last top-level statement.
    pub result: Value,
}

/// The design-file interpreter.
///
/// See the [crate-level example](crate) for typical use via
/// [`crate::run_design`].
#[derive(Debug)]
pub struct Interpreter {
    rsg: Rsg,
    globals: Names<Value>,
    frames: Vec<Names<Value>>,
    procs: Names<Rc<Proc>>,
    output: Vec<String>,
    input: VecDeque<i64>,
    call_stack: Vec<Rc<Proc>>,
    args: Vec<Value>,
    max_call_depth: usize,
    root_frame: Option<EnvId>,
}

impl Interpreter {
    /// Creates an interpreter over an existing generator.
    pub fn new(rsg: Rsg) -> Interpreter {
        Interpreter {
            rsg,
            globals: Names::default(),
            frames: Vec::new(),
            procs: Names::default(),
            output: Vec::new(),
            input: VecDeque::new(),
            call_stack: Vec::new(),
            args: Vec::new(),
            max_call_depth: 100,
            root_frame: None,
        }
    }

    /// Creates an interpreter from a sample layout (extracting its
    /// interface table, Fig 3.1 step 1).
    ///
    /// # Errors
    ///
    /// Propagates interface-extraction errors.
    pub fn from_sample(sample: CellTable) -> Result<Interpreter, LangError> {
        Ok(Interpreter::new(Rsg::from_sample(sample)?))
    }

    /// Loads a parameter file into the global environment (§4.1).
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn load_parameters(&mut self, src: &str) -> Result<(), LangError> {
        let p = parse_parameter_file(src)?;
        for (name, value) in p.bindings {
            self.globals.insert(name.into(), value);
        }
        Ok(())
    }

    /// Supplies integers for `(read)` statements.
    pub fn push_input<I: IntoIterator<Item = i64>>(&mut self, values: I) {
        self.input.extend(values);
    }

    /// Sets one global directly (a programmatic parameter binding).
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.globals.insert(name.into().into(), value);
    }

    /// Reads a global back (for tests and drivers).
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// The generator.
    pub fn rsg(&self) -> &Rsg {
        &self.rsg
    }

    /// The collected `print` output so far.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Parses and executes design-file source, returning the value of the
    /// last top-level statement. A source text equal to the last one
    /// parsed on this thread reuses that parse.
    ///
    /// # Errors
    ///
    /// Propagates parse and runtime errors; the interpreter remains usable
    /// for inspection afterwards.
    pub fn exec(&mut self, src: &str) -> Result<Value, LangError> {
        let program = parsed(src)?;
        // Definitions first (so statements may call procs defined later in
        // the file), then statements in order.
        for (name, proc) in &program.procs {
            self.procs.insert(Rc::clone(name), Rc::clone(proc));
        }
        let root = match self.root_frame {
            Some(r) => r,
            None => {
                let r = self.new_frame();
                self.root_frame = Some(r);
                r
            }
        };
        let mut last = Value::Unit;
        for stmt in &program.stmts {
            last = self.eval(stmt, root)?;
        }
        Ok(last)
    }

    /// Consumes the interpreter, executing `src` and packaging the result.
    ///
    /// # Errors
    ///
    /// Propagates parse and runtime errors.
    pub fn run(mut self, src: &str) -> Result<DesignRun, LangError> {
        let result = self.exec(src)?;
        Ok(DesignRun {
            rsg: self.rsg,
            output: self.output,
            result,
        })
    }

    // ------------------------------------------------------------------
    // evaluation
    // ------------------------------------------------------------------

    fn new_frame(&mut self) -> EnvId {
        self.frames.push(Names::default());
        EnvId(self.frames.len() as u32 - 1)
    }

    fn rt(&self, message: impl Into<String>) -> LangError {
        LangError::Runtime {
            message: message.into(),
            call_stack: self.call_stack.iter().map(|p| p.def.name.clone()).collect(),
        }
    }

    fn eval(&mut self, ast: &Ast, env: EnvId) -> Result<Value, LangError> {
        match ast {
            Ast::Int(n) => Ok(Value::Int(*n)),
            Ast::Str(s) => Ok(Value::Str(s.clone())),
            Ast::Bool(b) => Ok(Value::Bool(*b)),
            Ast::Var(vr) => {
                let name = self.mangle(vr, env)?;
                self.lookup(&name, env)
            }
            Ast::Assign(vr, rhs) => {
                let value = self.eval(rhs, env)?;
                let name = self.mangle(vr, env)?;
                self.assign(&name, value.clone(), env);
                Ok(value)
            }
            Ast::Prog(body) => {
                let mut last = Value::Unit;
                for stmt in body {
                    last = self.eval(stmt, env)?;
                }
                Ok(last)
            }
            Ast::Cond(arms) => {
                for (test, body) in arms {
                    if self.truthy(test, env)? {
                        let mut last = Value::Unit;
                        for stmt in body {
                            last = self.eval(stmt, env)?;
                        }
                        return Ok(last);
                    }
                }
                Ok(Value::Unit)
            }
            Ast::Do {
                var,
                init,
                next,
                exit,
                body,
            } => {
                let init_v = self.eval(init, env)?;
                self.bind_local(var, init_v, env);
                loop {
                    if self.truthy(exit, env)? {
                        return Ok(Value::Unit);
                    }
                    for stmt in body {
                        self.eval(stmt, env)?;
                    }
                    let next_v = self.eval(next, env)?;
                    self.bind_local(var, next_v, env);
                }
            }
            Ast::Print(inner) => {
                let v = self.eval(inner, env)?;
                self.output.push(v.to_string());
                Ok(v)
            }
            Ast::Read => self
                .input
                .pop_front()
                .map(Value::Int)
                .ok_or_else(|| self.rt("`(read)` with empty input queue")),
            Ast::MkInstance(vr, cell_expr) => {
                let cell = self.eval_cell(cell_expr, env)?;
                let node = self.rsg.mk_instance(cell);
                let name = self.mangle(vr, env)?;
                self.assign(&name, Value::Node(node), env);
                Ok(Value::Node(node))
            }
            Ast::Connect(a, b, idx) => {
                let na = self.eval_node(a, env)?;
                let nb = self.eval_node(b, env)?;
                let index = self.eval_index(idx, env)?;
                self.rsg.connect(na, nb, index).map_err(LangError::from)?;
                Ok(Value::Unit)
            }
            Ast::Subcell(env_expr, vr) => {
                let target = match self.eval(env_expr, env)? {
                    Value::Env(e) => e,
                    other => {
                        return Err(self.rt(format!(
                            "subcell expects an environment, got {}",
                            other.type_name()
                        )))
                    }
                };
                let name = self.mangle(vr, env)?;
                self.frames[target.0 as usize]
                    .get(name.as_ref())
                    .cloned()
                    .ok_or_else(|| self.rt(format!("`{name}` not bound in that environment")))
            }
            Ast::MkCell(name_expr, root_expr) => {
                let name = match self.eval(name_expr, env)? {
                    Value::Str(s) => s,
                    Value::Symbol(s) => s,
                    other => {
                        return Err(self.rt(format!(
                            "mk_cell name must be a string, got {}",
                            other.type_name()
                        )))
                    }
                };
                let root = self.eval_node(root_expr, env)?;
                let id = self.rsg.mk_cell(&name, root).map_err(LangError::from)?;
                Ok(Value::Cell(id))
            }
            Ast::DeclareInterface {
                cell_c,
                cell_d,
                new_index,
                node_a,
                node_b,
                existing_index,
            } => {
                let c = self.eval_cell(cell_c, env)?;
                let d = self.eval_cell(cell_d, env)?;
                let new_idx = self.eval_index(new_index, env)?;
                let na = self.eval_node(node_a, env)?;
                let nb = self.eval_node(node_b, env)?;
                let old_idx = self.eval_index(existing_index, env)?;
                self.rsg
                    .declare_interface(c, d, new_idx, na, nb, old_idx)
                    .map_err(LangError::from)?;
                Ok(Value::Unit)
            }
            Ast::Call { name, args, line } => self.eval_call(name, args, *line, env),
        }
    }

    fn eval_call(
        &mut self,
        name: &str,
        args: &[Ast],
        line: usize,
        env: EnvId,
    ) -> Result<Value, LangError> {
        // User procedures shadow nothing: builtin operator names are not
        // legal procedure names anyway (they contain punctuation).
        if let Some(proc) = self.procs.get(name) {
            return self.call_proc(Rc::clone(proc), args, env);
        }
        // Builtin arguments go on a shared stack, so a call allocates
        // nothing; nested calls push above `base` and pop back to it.
        let base = self.args.len();
        for a in args {
            match self.eval(a, env) {
                Ok(v) => self.args.push(v),
                Err(e) => {
                    self.args.truncate(base);
                    return Err(e);
                }
            }
        }
        let out = self.builtin(name, &self.args[base..], line);
        self.args.truncate(base);
        out
    }

    fn call_proc(&mut self, proc: Rc<Proc>, args: &[Ast], env: EnvId) -> Result<Value, LangError> {
        let def = &proc.def;
        let name = &def.name;
        if self.call_stack.len() >= self.max_call_depth {
            return Err(self.rt(format!("call depth limit exceeded calling `{name}`")));
        }
        if args.len() != def.formals.len() {
            return Err(self.rt(format!(
                "`{name}` expects {} argument(s), got {}",
                def.formals.len(),
                args.len()
            )));
        }
        // The paper sizes each frame's hash table from the formal+local
        // count (§4.5); with_capacity mirrors that. The arguments are
        // evaluated in the caller's environment straight into it.
        let mut frame = Names::with_capacity_and_hasher(
            def.formals.len() + def.locals.len(),
            Default::default(),
        );
        for (f, a) in proc.formals.iter().zip(args) {
            let v = self.eval(a, env)?;
            frame.insert(Rc::clone(f), v);
        }
        for l in &proc.locals {
            frame.insert(Rc::clone(l), Value::Unit);
        }
        self.frames.push(frame);
        let callee = EnvId(self.frames.len() as u32 - 1);

        self.call_stack.push(Rc::clone(&proc));
        let mut last = Value::Unit;
        for stmt in &def.body {
            match self.eval(stmt, callee) {
                Ok(v) => last = v,
                Err(e) => {
                    self.call_stack.pop();
                    return Err(e);
                }
            }
        }
        self.call_stack.pop();
        if def.is_macro {
            return Ok(Value::Env(callee));
        }
        // Only a macro hands out its frame, so a procedure's frame is
        // unreachable once it returns. Free it unless a macro called
        // from the body left a surviving frame above it.
        if self.frames.len() == callee.0 as usize + 1 {
            self.frames.pop();
        }
        Ok(last)
    }

    fn builtin(&self, name: &str, vals: &[Value], line: usize) -> Result<Value, LangError> {
        let int = |v: &Value| -> Result<i64, LangError> {
            match v {
                Value::Int(n) => Ok(*n),
                other => Err(LangError::runtime(format!(
                    "line {line}: `{name}` expects integers, got {}",
                    other.type_name()
                ))),
            }
        };
        let fold = |vals: &[Value], f: fn(i64, i64) -> i64| -> Result<Value, LangError> {
            if vals.len() < 2 {
                return Err(LangError::runtime(format!(
                    "line {line}: `{name}` needs at least 2 arguments"
                )));
            }
            let mut acc = int(&vals[0])?;
            for v in &vals[1..] {
                acc = f(acc, int(v)?);
            }
            Ok(Value::Int(acc))
        };
        let cmp2 = |vals: &[Value]| -> Result<(i64, i64), LangError> {
            if vals.len() != 2 {
                return Err(LangError::runtime(format!(
                    "line {line}: `{name}` takes exactly 2 arguments"
                )));
            }
            Ok((int(&vals[0])?, int(&vals[1])?))
        };
        match name {
            "+" => fold(vals, |a, b| a + b),
            "-" => {
                if vals.len() == 1 {
                    Ok(Value::Int(-int(&vals[0])?))
                } else {
                    fold(vals, |a, b| a - b)
                }
            }
            "*" => fold(vals, |a, b| a * b),
            "//" => {
                let (a, b) = cmp2(vals)?;
                if b == 0 {
                    return Err(self.rt(format!("line {line}: division by zero")));
                }
                Ok(Value::Int(a.div_euclid(b)))
            }
            "mod" => {
                let (a, b) = cmp2(vals)?;
                if b == 0 {
                    return Err(self.rt(format!("line {line}: mod by zero")));
                }
                Ok(Value::Int(a.rem_euclid(b)))
            }
            "=" => {
                if vals.len() != 2 {
                    return Err(self.rt(format!("line {line}: `=` takes 2 arguments")));
                }
                Ok(Value::Bool(vals[0] == vals[1]))
            }
            ">" => cmp2(vals).map(|(a, b)| Value::Bool(a > b)),
            "<" => cmp2(vals).map(|(a, b)| Value::Bool(a < b)),
            ">=" => cmp2(vals).map(|(a, b)| Value::Bool(a >= b)),
            "<=" => cmp2(vals).map(|(a, b)| Value::Bool(a <= b)),
            "min" => fold(vals, i64::min),
            "max" => fold(vals, i64::max),
            "not" => match vals {
                [Value::Bool(b)] => Ok(Value::Bool(!b)),
                _ => Err(self.rt(format!("line {line}: `not` takes one boolean"))),
            },
            _ => Err(self.rt(format!("line {line}: unknown procedure `{name}`"))),
        }
    }

    fn truthy(&mut self, ast: &Ast, env: EnvId) -> Result<bool, LangError> {
        match self.eval(ast, env)? {
            Value::Bool(b) => Ok(b),
            other => Err(self.rt(format!(
                "condition must be a boolean, got {}",
                other.type_name()
            ))),
        }
    }

    /// Resolves a variable reference to its (possibly mangled) name by
    /// evaluating index expressions in the current environment. A plain
    /// reference borrows its own text.
    fn mangle<'a>(&mut self, vr: &'a VarRef, env: EnvId) -> Result<Cow<'a, str>, LangError> {
        if vr.indices.is_empty() {
            return Ok(Cow::Borrowed(&vr.base));
        }
        let mut name = vr.base.clone();
        for idx in &vr.indices {
            match self.eval(idx, env)? {
                Value::Int(n) => {
                    // Writing into a String cannot fail.
                    let _ = write!(name, ".{n}");
                }
                other => {
                    return Err(self.rt(format!(
                        "index of `{}` must be an integer, got {}",
                        vr.base,
                        other.type_name()
                    )))
                }
            }
        }
        Ok(Cow::Owned(name))
    }

    /// §4.1 lookup chain: frame → globals (with symbol-alias resolution) →
    /// cell table.
    fn lookup(&self, name: &str, env: EnvId) -> Result<Value, LangError> {
        match self.frames[env.0 as usize].get(name) {
            Some(Value::Symbol(s)) => self.lookup_global_or_cell(s, 0),
            Some(v) => Ok(v.clone()),
            None => self.lookup_global_or_cell(name, 0),
        }
    }

    fn lookup_global_or_cell(&self, name: &str, depth: usize) -> Result<Value, LangError> {
        if depth > 16 {
            return Err(self.rt(format!("parameter alias chain too deep at `{name}`")));
        }
        match self.globals.get(name) {
            Some(Value::Symbol(s)) => self.lookup_global_or_cell(s, depth + 1),
            Some(v) => Ok(v.clone()),
            None => self
                .rsg
                .cells()
                .lookup(name)
                .map(Value::Cell)
                .ok_or_else(|| self.rt(format!("unbound variable `{name}`"))),
        }
    }

    /// Assignment: update the binding where it lives (frame first, then
    /// global), else create it in the current frame.
    fn assign(&mut self, name: &str, value: Value, env: EnvId) {
        if let Some(slot) = self.frames[env.0 as usize].get_mut(name) {
            *slot = value;
        } else if let Some(slot) = self.globals.get_mut(name) {
            *slot = value;
        } else {
            self.frames[env.0 as usize].insert(name.into(), value);
        }
    }

    /// Binds `name` in the current frame itself (a `do` loop variable).
    fn bind_local(&mut self, name: &str, value: Value, env: EnvId) {
        let frame = &mut self.frames[env.0 as usize];
        match frame.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                frame.insert(name.into(), value);
            }
        }
    }

    fn eval_cell(&mut self, ast: &Ast, env: EnvId) -> Result<CellId, LangError> {
        match self.eval(ast, env)? {
            Value::Cell(c) => Ok(c),
            Value::Str(s) | Value::Symbol(s) => self
                .rsg
                .cells()
                .lookup(&s)
                .ok_or_else(|| self.rt(format!("no cell named `{s}`"))),
            other => Err(self.rt(format!("expected a cell, got {}", other.type_name()))),
        }
    }

    fn eval_node(&mut self, ast: &Ast, env: EnvId) -> Result<rsg_core::NodeId, LangError> {
        match self.eval(ast, env)? {
            Value::Node(n) => Ok(n),
            other => Err(self.rt(format!("expected a node, got {}", other.type_name()))),
        }
    }

    fn eval_index(&mut self, ast: &Ast, env: EnvId) -> Result<u32, LangError> {
        match self.eval(ast, env)? {
            Value::Int(n) => u32::try_from(n).map_err(|_| {
                self.rt(format!(
                    "interface index must be in 0..={}, got {n}",
                    u32::MAX
                ))
            }),
            other => Err(self.rt(format!(
                "interface index must be an integer, got {}",
                other.type_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_core::Interface;
    use rsg_geom::{Orientation, Point, Rect, Vector};
    use rsg_layout::{CellDefinition, Instance, Layer};

    fn bare_interp() -> Interpreter {
        Interpreter::new(Rsg::new())
    }

    /// Generator with a 10×10 `tile` and tile–tile interfaces #1 (10 east)
    /// and #2 (12 north).
    fn tiled_interp() -> Interpreter {
        let mut rsg = Rsg::new();
        let mut c = CellDefinition::new("tile");
        c.add_box(Layer::Metal1, Rect::from_coords(0, 0, 10, 10));
        let t = rsg.cells_mut().insert(c).unwrap();
        rsg.declare_primitive_interface(
            t,
            t,
            1,
            Interface::new(Vector::new(10, 0), Orientation::NORTH),
        )
        .unwrap();
        rsg.declare_primitive_interface(
            t,
            t,
            2,
            Interface::new(Vector::new(0, 12), Orientation::NORTH),
        )
        .unwrap();
        Interpreter::new(rsg)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let mut i = bare_interp();
        assert_eq!(i.exec("(+ 1 2 3)").unwrap(), Value::Int(6));
        assert_eq!(i.exec("(- 10 4)").unwrap(), Value::Int(6));
        assert_eq!(i.exec("(- 5)").unwrap(), Value::Int(-5));
        assert_eq!(i.exec("(* 3 4)").unwrap(), Value::Int(12));
        assert_eq!(i.exec("(// 7 2)").unwrap(), Value::Int(3));
        assert_eq!(i.exec("(mod 7 2)").unwrap(), Value::Int(1));
        assert_eq!(i.exec("(= 1 1)").unwrap(), Value::Bool(true));
        assert_eq!(i.exec("(> 2 1)").unwrap(), Value::Bool(true));
        assert_eq!(i.exec("(< 2 1)").unwrap(), Value::Bool(false));
        assert_eq!(i.exec("(min 4 2 9)").unwrap(), Value::Int(2));
        assert_eq!(i.exec("(not false)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_errors() {
        let mut i = bare_interp();
        assert!(i.exec("(// 1 0)").is_err());
        assert!(i.exec("(mod 1 0)").is_err());
    }

    #[test]
    fn setq_cond_do() {
        let mut i = bare_interp();
        let v = i
            .exec("(setq total 0)\n(do (k 1 (+ k 1) (> k 5)) (setq total (+ total k)))\ntotal")
            .unwrap();
        assert_eq!(v, Value::Int(15));
        let c = i
            .exec("(cond ((= 1 2) 10) ((= 1 1) 20) (true 30))")
            .unwrap();
        assert_eq!(c, Value::Int(20));
        // No matching arm: Unit.
        assert_eq!(i.exec("(cond ((= 1 2) 10))").unwrap(), Value::Unit);
    }

    #[test]
    fn functions_and_recursion() {
        let mut i = bare_interp();
        let v = i
            .exec("(defun fact (n) (locals) (cond ((= n 0) 1) (true (* n (fact (- n 1))))))\n(fact 10)")
            .unwrap();
        assert_eq!(v, Value::Int(3628800));
    }

    #[test]
    fn runaway_recursion_reports_depth() {
        let mut i = bare_interp();
        let err = i
            .exec("(defun foo (n) (locals) (foo (+ n 1)))\n(foo 0)")
            .unwrap_err();
        assert!(err.to_string().contains("depth"));
    }

    #[test]
    fn procedure_frames_are_freed_on_return() {
        let mut i = bare_interp();
        i.exec("(defun sq (n) (locals m) (setq m (* n n)) m)\n(setq total 0)")
            .unwrap();
        let before = i.frames.len();
        let v = i
            .exec("(do (k 0 (+ k 1) (= k 100000)) (setq total (+ total (sq 2))))\ntotal")
            .unwrap();
        assert_eq!(v, Value::Int(400_000));
        assert!(i.frames.len() <= before + 1, "{} frames", i.frames.len());
        // A procedure that calls a macro keeps its frame under the
        // surviving macro frame; the macro's environment stays readable.
        let e = i
            .exec("(macro mbox (w) (locals))\n(defun wrap (w) (locals) (mbox w))\n(setq e (wrap 7))\n(subcell e w)")
            .unwrap();
        assert_eq!(e, Value::Int(7));
    }

    #[test]
    fn macros_return_environments() {
        let mut i = bare_interp();
        let v = i
            .exec(
                "(macro mbox (w h) (locals area) (setq area (* w h)))\n\
                 (setq e (mbox 3 4))\n(subcell e area)",
            )
            .unwrap();
        assert_eq!(v, Value::Int(12));
        // Formals are also accessible in the returned environment.
        let w = i.exec("(subcell e w)").unwrap();
        assert_eq!(w, Value::Int(3));
    }

    #[test]
    fn indexed_variables() {
        let mut i = bare_interp();
        let v = i
            .exec(
                "(setq n 3)\n\
                 (do (k 1 (+ k 1) (> k n)) (assign slot.k (* k k)))\n\
                 (+ slot.1 (+ slot.2 slot.(- n 0)))",
            )
            .unwrap();
        assert_eq!(v, Value::Int(1 + 4 + 9));
    }

    #[test]
    fn two_indexed_variables() {
        let mut i = bare_interp();
        let v = i
            .exec("(assign g.2.3 42)\n(setq r 2)\n(setq c 3)\ng.r.c")
            .unwrap();
        assert_eq!(v, Value::Int(42));
    }

    #[test]
    fn parameter_scoping_chain() {
        let mut i = tiled_interp();
        i.load_parameters("corecell=tile\nhinum=1\nsize=3\n")
            .unwrap();
        // `corecell` resolves via global alias → cell table.
        let v = i.exec("corecell").unwrap();
        assert!(matches!(v, Value::Cell(_)));
        // Direct cell-table fallback.
        let v2 = i.exec("tile").unwrap();
        assert_eq!(v, v2);
        // Locals shadow globals.
        let v3 = i
            .exec("(defun probe (size) (locals) size)\n(probe 99)")
            .unwrap();
        assert_eq!(v3, Value::Int(99));
        assert_eq!(i.exec("size").unwrap(), Value::Int(3));
    }

    #[test]
    fn alias_cycle_detected() {
        let mut i = bare_interp();
        i.load_parameters("a=b\nb=a\n").unwrap();
        let err = i.exec("a").unwrap_err();
        assert!(err.to_string().contains("too deep"));
    }

    #[test]
    fn rsg_primitives_build_a_row() {
        let mut i = tiled_interp();
        i.load_parameters("corecell=tile\nhinum=1\n").unwrap();
        let v = i
            .exec(
                "(mk_instance first corecell)\n\
                 (setq prev first)\n\
                 (do (k 2 (+ k 1) (> k 4))\n\
                   (mk_instance cur corecell)\n\
                   (connect prev cur hinum)\n\
                   (setq prev cur))\n\
                 (mk_cell \"row\" first)",
            )
            .unwrap();
        assert!(matches!(v, Value::Cell(_)));
        let row = i.rsg().cells().lookup("row").unwrap();
        let pts: Vec<Point> = i
            .rsg()
            .cells()
            .require(row)
            .unwrap()
            .instances()
            .map(|x| x.point_of_call)
            .collect();
        assert_eq!(
            pts,
            vec![
                Point::new(0, 0),
                Point::new(10, 0),
                Point::new(20, 0),
                Point::new(30, 0)
            ]
        );
    }

    #[test]
    fn subcell_reaches_into_macro_results() {
        let mut i = tiled_interp();
        i.load_parameters("corecell=tile\nhinum=1\nvinum=2\n")
            .unwrap();
        // mrow builds a row and exposes its first node as `first`; the top
        // level stitches two rows vertically through those handles.
        let v = i
            .exec(
                "(macro mrow (n) (locals first prev cur)\n\
                   (mk_instance first corecell)\n\
                   (setq prev first)\n\
                   (do (k 2 (+ k 1) (> k n))\n\
                     (mk_instance cur corecell)\n\
                     (connect prev cur hinum)\n\
                     (setq prev cur)))\n\
                 (setq r1 (mrow 3))\n\
                 (setq r2 (mrow 3))\n\
                 (connect (subcell r1 first) (subcell r2 first) vinum)\n\
                 (mk_cell \"grid\" (subcell r1 first))",
            )
            .unwrap();
        assert!(matches!(v, Value::Cell(_)));
        let grid = i.rsg().cells().lookup("grid").unwrap();
        let def = i.rsg().cells().require(grid).unwrap();
        assert_eq!(def.instances().count(), 6);
        let pts: std::collections::HashSet<Point> =
            def.instances().map(|x| x.point_of_call).collect();
        assert!(pts.contains(&Point::new(20, 12)));
    }

    #[test]
    fn print_and_read() {
        let mut i = bare_interp();
        i.push_input([7, 8]);
        let v = i.exec("(print (+ (read) (read)))").unwrap();
        assert_eq!(v, Value::Int(15));
        assert_eq!(i.output(), ["15"]);
        assert!(i.exec("(read)").is_err());
    }

    #[test]
    fn error_carries_call_stack() {
        let mut i = bare_interp();
        let err = i
            .exec("(defun inner () (locals) nosuchvar)\n(defun outer () (locals) (inner))\n(outer)")
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("nosuchvar"));
        assert!(text.contains("outer > inner"), "{text}");
    }

    #[test]
    fn interface_index_beyond_u32_is_an_error_not_a_wrap() {
        let mut i = tiled_interp();
        i.exec("(mk_instance a tile)(mk_instance b tile)").unwrap();
        // 2^32 + 1 would truncate to the existing interface #1.
        let err = i.exec("(connect a b 4294967297)").unwrap_err();
        assert!(matches!(err, LangError::Runtime { .. }), "{err}");
        assert!(err.to_string().contains("4294967297"), "{err}");
        assert!(i.exec("(connect a b -1)").is_err());
        // u32::MAX itself is still an index (edges are checked when the
        // cell is built).
        i.exec("(connect a b 4294967295)").unwrap();
    }

    #[test]
    fn wrong_arity_reported() {
        let mut i = bare_interp();
        let err = i.exec("(defun fxy (a b) (locals) a)\n(fxy 1)").unwrap_err();
        assert!(err.to_string().contains("expects 2"));
    }

    #[test]
    fn type_errors() {
        let mut i = tiled_interp();
        assert!(i.exec("(connect 1 2 3)").is_err());
        assert!(i.exec("(mk_cell 42 43)").is_err());
        assert!(i.exec("(cond (5 1))").is_err());
        assert!(i.exec("(+ true 1)").is_err());
        assert!(i.exec("(subcell 3 x)").is_err());
    }

    #[test]
    fn run_design_via_sample() {
        // End-to-end Fig 1.1 flow through the public driver.
        let run = crate::run_design(
            abut_sample(),
            "(mk_instance a corecell)(mk_instance b corecell)(connect a b 1)(mk_cell \"pair\" a)",
            "corecell=tile\n",
        )
        .unwrap();
        let pair = run.rsg.cells().lookup("pair").unwrap();
        assert_eq!(
            run.rsg.cells().require(pair).unwrap().instances().count(),
            2
        );
    }

    /// A sample with a 6-wide `tile` and its east interface #1.
    fn abut_sample() -> CellTable {
        let mut sample = CellTable::new();
        let mut tile = CellDefinition::new("tile");
        tile.add_box(Layer::Poly, Rect::from_coords(0, 0, 6, 6));
        let t = sample.insert(tile).unwrap();
        let mut ab = CellDefinition::new("abut");
        ab.add_instance(Instance::new(t, Point::new(0, 0), Orientation::NORTH));
        ab.add_instance(Instance::new(t, Point::new(6, 0), Orientation::NORTH));
        ab.add_label("1", Point::new(6, 3));
        sample.insert(ab).unwrap();
        sample
    }

    /// Everything a run produced: every cell in id order, the printed
    /// lines and the result.
    fn snapshot(run: &DesignRun) -> (Vec<CellDefinition>, Vec<String>, Value) {
        let cells = run.rsg.cells().iter().map(|(_, c)| c.clone()).collect();
        (cells, run.output.clone(), run.result.clone())
    }

    const ROW: &str = "(macro mrow (size) (locals first prev cur)
          (mk_instance first corecell) (setq prev first)
          (do (i 2 (+ i 1) (> i size))
            (mk_instance cur corecell) (connect prev cur 1) (setq prev cur))
          (print size)
          (mk_cell \"row\" first))
        (mrow rowsize)";

    #[test]
    fn running_the_same_source_twice_gives_identical_runs() {
        let first = crate::run_design(abut_sample(), ROW, "corecell=tile\nrowsize=5\n").unwrap();
        let second = crate::run_design(abut_sample(), ROW, "corecell=tile\nrowsize=5\n").unwrap();
        assert_eq!(snapshot(&first), snapshot(&second));
        let row = first.rsg.cells().lookup("row").unwrap();
        assert_eq!(
            first.rsg.cells().require(row).unwrap().instances().count(),
            5
        );
        // The parameters still bind per run: the cached program is only
        // the syntax.
        let three = crate::run_design(abut_sample(), ROW, "corecell=tile\nrowsize=3\n").unwrap();
        let row = three.rsg.cells().lookup("row").unwrap();
        assert_eq!(
            three.rsg.cells().require(row).unwrap().instances().count(),
            3
        );
        assert_eq!(three.output, vec!["3".to_string()]);
    }

    #[test]
    fn the_parse_is_reused_for_equal_text_and_redone_for_changed_text() {
        let a = parsed(ROW).unwrap();
        assert!(
            Rc::ptr_eq(&a, &parsed(ROW).unwrap()),
            "same text, same parse"
        );
        // Equal text from another allocation is still a hit.
        let copy = String::from(ROW);
        assert!(Rc::ptr_eq(&a, &parsed(&copy).unwrap()));
        let changed = ROW.replace("(print size)", "(print (+ size 1))");
        let b = parsed(&changed).unwrap();
        assert!(!Rc::ptr_eq(&a, &b), "changed text is parsed afresh");
        assert_eq!(b.src, changed);
        let run = crate::run_design(abut_sample(), &changed, "corecell=tile\nrowsize=2\n").unwrap();
        assert_eq!(run.output, vec!["3".to_string()]);
        // Back to the first text: one entry per thread, so a new parse
        // that equals the first.
        let again = parsed(ROW).unwrap();
        assert!(!Rc::ptr_eq(&b, &again));
        assert_eq!(again.stmts, a.stmts);
    }

    #[test]
    fn a_parse_error_is_not_cached() {
        let good = parsed(ROW).unwrap();
        let bad = "(mrow rowsize";
        let err = parsed(bad).unwrap_err();
        assert!(matches!(err, LangError::Parse { .. }), "{err:?}");
        // The failed text left nothing behind: the good parse stays, and
        // the bad text fails again rather than hitting anything.
        assert!(Rc::ptr_eq(&good, &parsed(ROW).unwrap()));
        assert_eq!(parsed(bad).unwrap_err(), err);
        let mut i = tiled_interp();
        assert_eq!(i.exec(bad).unwrap_err(), err);
    }
}
