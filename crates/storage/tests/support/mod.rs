//! The test-support simulators: `SimDisk` (this file), an in-memory disk
//! that can lose power after any operation; [`faults::FaultyIo`], a seeded
//! fault injector in front of any backend; and [`sched::Sim`], a seeded
//! scheduler for concurrent sessions. Storage's integration tests include
//! the directory with `mod support;`, the root crate's with
//! `#[path = "../crates/storage/tests/support/mod.rs"] mod support;`.
//!
//! In `SimDisk`, every [`IoBackend`] call lands in a *volatile* image at once, the way a
//! page cache serves reads. What survives a power loss is the *durable*
//! image plus some of the volatile operations:
//!
//! - `fsync(f)` makes the bytes of `f` durable;
//! - `fsync_dir(d)` makes the entries of `d` durable;
//! - an entry created by `create_dir_all` or `write_file`, renamed, or
//!   removed stays volatile until its parent directory is fsynced.
//!
//! The disk keeps a log of events: each operation on one object (a file's
//! bytes, or a directory's entries) and each fsync of one. A crash keeps,
//! per object, the durable operations plus a prefix of the volatile ones —
//! per-object order is kept, order between objects is not. This is the
//! crash model of ALICE (Pillai et al., OSDI 2014), written here from its
//! description. [`SimDisk::crash`] builds the disk such a crash leaves; the
//! real recovery code then opens it like any other.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

pub mod faults;
pub mod sched;

use kath_storage::IoBackend;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Component, Path, PathBuf};
use std::sync::Mutex;

type Ino = u64;
const ROOT: Ino = 0;

#[derive(Debug, Clone)]
enum Node {
    File(Vec<u8>),
    Dir(BTreeMap<String, Ino>),
}

/// A file tree: nodes by inode number, the root directory at [`ROOT`].
/// Inodes no entry reaches any more are kept; nothing can read them.
#[derive(Debug, Clone)]
struct Tree {
    nodes: HashMap<Ino, Node>,
}

/// One change to one object: the operations on a directory's entries
/// (`Link`, `Unlink`, `Rename`) or on a file's bytes (`SetLen`, `Write`).
#[derive(Debug, Clone)]
enum Op {
    Link { name: String, ino: Ino, dir: bool },
    Unlink { name: String },
    Rename { from: String, to: String },
    SetLen(u64),
    Write { offset: u64, data: Vec<u8> },
}

#[derive(Debug, Clone)]
enum Event {
    /// An operation on the object with this inode number.
    Op(Ino, Op),
    /// An fsync of the object: every operation on it so far is durable.
    Sync(Ino),
}

/// Which volatile operations a crash keeps.
#[derive(Debug, Clone, Copy)]
pub enum Keep {
    /// None: the durable image alone.
    Durable,
    /// All of them: what a killed process leaves behind.
    All,
    /// A prefix per object drawn from the seed; the first operation not
    /// kept may land torn (a prefix of its bytes).
    Seeded(u64),
}

impl Tree {
    fn new() -> Tree {
        Tree {
            nodes: HashMap::from([(ROOT, Node::Dir(BTreeMap::new()))]),
        }
    }

    fn dir_mut(&mut self, ino: Ino) -> &mut BTreeMap<String, Ino> {
        match self
            .nodes
            .entry(ino)
            .or_insert_with(|| Node::Dir(BTreeMap::new()))
        {
            Node::Dir(entries) => entries,
            Node::File(_) => panic!("inode {ino} is a file, not a directory"),
        }
    }

    fn file_mut(&mut self, ino: Ino) -> &mut Vec<u8> {
        match self
            .nodes
            .entry(ino)
            .or_insert_with(|| Node::File(Vec::new()))
        {
            Node::File(data) => data,
            Node::Dir(_) => panic!("inode {ino} is a directory, not a file"),
        }
    }

    fn apply(&mut self, obj: Ino, op: &Op) {
        match op {
            Op::Link { name, ino, dir } => {
                self.nodes.entry(*ino).or_insert_with(|| match dir {
                    true => Node::Dir(BTreeMap::new()),
                    false => Node::File(Vec::new()),
                });
                self.dir_mut(obj).insert(name.clone(), *ino);
            }
            Op::Unlink { name } => {
                self.dir_mut(obj).remove(name);
            }
            Op::Rename { from, to } => {
                let entries = self.dir_mut(obj);
                if let Some(ino) = entries.remove(from) {
                    entries.insert(to.clone(), ino);
                }
            }
            Op::SetLen(len) => self.file_mut(obj).resize(*len as usize, 0),
            Op::Write { offset, data } => {
                let file = self.file_mut(obj);
                let (start, end) = (*offset as usize, *offset as usize + data.len());
                if file.len() < end {
                    file.resize(end, 0);
                }
                file[start..end].copy_from_slice(data);
            }
        }
    }

    /// The node `path` names, if every component exists.
    fn node(&self, path: &Path) -> Option<&Node> {
        self.resolve(path).and_then(|ino| self.nodes.get(&ino))
    }

    /// The inode `path` names, if every component exists.
    fn resolve(&self, path: &Path) -> Option<Ino> {
        let mut ino = ROOT;
        for name in names(path)? {
            match self.nodes.get(&ino)? {
                Node::Dir(entries) => ino = *entries.get(&name)?,
                Node::File(_) => return None,
            }
        }
        Some(ino)
    }

    /// The directory holding `path` and the entry name in it.
    fn parent(&self, path: &Path) -> io::Result<(Ino, String)> {
        let mut names = names(path).ok_or_else(|| unsupported(path))?;
        let name = names.pop().ok_or_else(|| unsupported(path))?;
        let parent: PathBuf = names.iter().collect();
        let ino = self
            .resolve(&Path::new("/").join(parent))
            .ok_or_else(|| not_found(path))?;
        match self.nodes.get(&ino) {
            Some(Node::Dir(_)) => Ok((ino, name)),
            _ => Err(not_found(path)),
        }
    }

    /// Everything an entry reaches, in path order: what recovery can see.
    fn fingerprint(&self) -> u64 {
        fn walk(tree: &Tree, ino: Ino, h: &mut DefaultHasher) {
            match tree.nodes.get(&ino) {
                Some(Node::File(data)) => (0u8, data).hash(h),
                Some(Node::Dir(entries)) => {
                    1u8.hash(h);
                    for (name, child) in entries {
                        name.hash(h);
                        walk(tree, *child, h);
                    }
                    2u8.hash(h);
                }
                None => 3u8.hash(h),
            }
        }
        let mut h = DefaultHasher::new();
        walk(self, ROOT, &mut h);
        h.finish()
    }
}

/// The names of an absolute path's components (`None` for `..`).
fn names(path: &Path) -> Option<Vec<String>> {
    let mut out = Vec::new();
    for c in path.components() {
        match c {
            Component::Normal(n) => out.push(n.to_string_lossy().into_owned()),
            Component::RootDir | Component::CurDir | Component::Prefix(_) => {}
            Component::ParentDir => return None,
        }
    }
    Some(out)
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
}

fn other(path: &Path, what: &str) -> io::Error {
    io::Error::other(format!("{} {what}", path.display()))
}

fn unsupported(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, format!("{}", path.display()))
}

/// SplitMix64, the seeded draw of [`Keep::Seeded`].
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n.max(1)
    }
}

#[derive(Debug)]
struct State {
    /// The image every logged event starts from (durable by definition).
    base: Tree,
    /// What reads see: `base` with every logged event applied.
    live: Tree,
    log: Vec<Event>,
    next_ino: Ino,
}

impl State {
    fn op(&mut self, obj: Ino, op: Op) {
        self.live.apply(obj, &op);
        self.log.push(Event::Op(obj, op));
    }

    /// Links a new inode into directory `parent` as `name`.
    fn link(&mut self, parent: Ino, name: String, dir: bool) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.op(parent, Op::Link { name, ino, dir });
        ino
    }

    /// The file at `path`, created (and linked into its parent) if absent.
    fn file(&mut self, path: &Path) -> io::Result<Ino> {
        match self.live.resolve(path) {
            Some(ino) if matches!(self.live.nodes.get(&ino), Some(Node::File(_))) => Ok(ino),
            Some(_) => Err(other(path, "is a directory")),
            None => {
                let (parent, name) = self.live.parent(path)?;
                Ok(self.link(parent, name, false))
            }
        }
    }

    /// Unlinks every entry under directory `ino`, deepest first.
    fn empty_dir(&mut self, ino: Ino) {
        let entries = match self.live.nodes.get(&ino) {
            Some(Node::Dir(entries)) => entries.clone(),
            _ => return,
        };
        for (name, child) in entries {
            self.empty_dir(child);
            self.op(ino, Op::Unlink { name });
        }
    }
}

/// The in-memory power-loss disk; see the module doc.
#[derive(Debug)]
pub struct SimDisk {
    state: Mutex<State>,
}

impl SimDisk {
    /// An empty disk: a root directory and nothing else.
    pub fn new() -> SimDisk {
        SimDisk::from_tree(Tree::new(), 1)
    }

    fn from_tree(tree: Tree, next_ino: Ino) -> SimDisk {
        SimDisk {
            state: Mutex::new(State {
                base: tree.clone(),
                live: tree,
                log: Vec::new(),
                next_ino,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Events logged so far. A crash point is a count of events in
    /// `0..=events()`: the power fails after the first that many.
    pub fn events(&self) -> usize {
        self.state().log.len()
    }

    /// The disk a power loss after the first `point` events leaves, with
    /// the volatile operations `keep` chooses. Its every entry is durable.
    pub fn crash(&self, point: usize, keep: Keep) -> SimDisk {
        let st = self.state();
        let log = &st.log[..point];
        let mut total: BTreeMap<Ino, usize> = BTreeMap::new();
        let mut durable: BTreeMap<Ino, usize> = BTreeMap::new();
        for event in log {
            match event {
                Event::Op(obj, _) => *total.entry(*obj).or_default() += 1,
                Event::Sync(obj) => {
                    durable.insert(*obj, total.get(obj).copied().unwrap_or(0));
                }
            }
        }
        let mut rng = Rng(match keep {
            Keep::Seeded(seed) => seed,
            _ => 0,
        });
        let kept: BTreeMap<Ino, usize> = total
            .iter()
            .map(|(obj, &n)| {
                let d = durable.get(obj).copied().unwrap_or(0);
                let k = match keep {
                    Keep::Durable => d,
                    Keep::All => n,
                    Keep::Seeded(_) => d + rng.below((n - d + 1) as u64) as usize,
                };
                (*obj, k)
            })
            .collect();
        let mut tree = st.base.clone();
        let mut seen: BTreeMap<Ino, usize> = BTreeMap::new();
        for event in log {
            let Event::Op(obj, op) = event else { continue };
            let i = seen.entry(*obj).or_default();
            if *i < kept[obj] {
                tree.apply(*obj, op);
            } else if *i == kept[obj] && matches!(keep, Keep::Seeded(_)) {
                if let Op::Write { offset, data } = op {
                    let cut = rng.below(data.len() as u64 + 1) as usize;
                    let torn = Op::Write {
                        offset: *offset,
                        data: data[..cut].to_vec(),
                    };
                    tree.apply(*obj, &torn);
                }
            }
            *i += 1;
        }
        SimDisk::from_tree(tree, st.next_ino)
    }

    /// A hash of everything an entry reaches: two disks with the same
    /// fingerprint recover alike.
    pub fn fingerprint(&self) -> u64 {
        self.state().live.fingerprint()
    }
}

impl IoBackend for SimDisk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.state().live.node(path) {
            Some(Node::File(data)) => Ok(data.clone()),
            Some(Node::Dir(_)) => Err(other(path, "is a directory")),
            None => Err(not_found(path)),
        }
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut st = self.state();
        let ino = st.file(path)?;
        let data = data.to_vec();
        st.op(ino, Op::Write { offset, data });
        Ok(())
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.state();
        let ino = st.file(path)?;
        st.op(ino, Op::SetLen(0));
        if !data.is_empty() {
            let data = data.to_vec();
            st.op(ino, Op::Write { offset: 0, data });
        }
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state();
        let ino = st.live.resolve(path).ok_or_else(|| not_found(path))?;
        st.log.push(Event::Sync(ino));
        Ok(())
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.fsync(path)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut st = self.state();
        let ino = st.live.resolve(path).ok_or_else(|| not_found(path))?;
        st.op(ino, Op::SetLen(len));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state();
        let (dir, from_name) = st.live.parent(from)?;
        let (to_dir, to_name) = st.live.parent(to)?;
        if dir != to_dir {
            return Err(unsupported(to));
        }
        st.live.resolve(from).ok_or_else(|| not_found(from))?;
        st.op(
            dir,
            Op::Rename {
                from: from_name,
                to: to_name,
            },
        );
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state();
        st.live.resolve(path).ok_or_else(|| not_found(path))?;
        let (dir, name) = st.live.parent(path)?;
        st.op(dir, Op::Unlink { name });
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state();
        let ino = st.live.resolve(path).ok_or_else(|| not_found(path))?;
        st.empty_dir(ino);
        let (dir, name) = st.live.parent(path)?;
        st.op(dir, Op::Unlink { name });
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state();
        let mut at = PathBuf::from("/");
        for name in names(path).ok_or_else(|| unsupported(path))? {
            let parent = st.live.resolve(&at).ok_or_else(|| not_found(&at))?;
            at.push(&name);
            match st.live.node(&at) {
                Some(Node::Dir(_)) => {}
                Some(Node::File(_)) => return Err(other(&at, "is a file")),
                None => {
                    st.link(parent, name, true);
                }
            }
        }
        Ok(())
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        match self.state().live.node(path) {
            Some(Node::Dir(entries)) => Ok(entries.keys().map(|n| path.join(n)).collect()),
            Some(Node::File(_)) => Err(other(path, "is not a directory")),
            None => Err(not_found(path)),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.state().live.resolve(path).is_some()
    }
}
