"""Build file of the benchmark package.

Compiles the program (`src/main/scala` of the checkout) together with the
benchmark (`perfbench/src`, `perfbench/test`) into
`.bench_build/perfbench/classes`, with the Scala compiler that ships in
Spark's `jars` directory. A digest of every source and jar name skips the
compile when nothing changed.

    python3 perfbench/build.py
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
PROGRAM = ROOT / "src" / "main" / "scala"
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"


def spark_jars():
    """The `jars` directory of the Spark installation: $SPARK_HOME, else
    the one whose `spark-submit` is on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(os.path.realpath(submit)).parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not jars.is_dir():
        sys.exit("perfbench: Spark not found; set SPARK_HOME")
    return jars


def sources():
    if not PROGRAM.is_dir():
        sys.exit(f"perfbench: no program sources at {PROGRAM.relative_to(ROOT)}; "
                 "run from the root of a full checkout")
    found = []
    for d in (PROGRAM, BENCH / "src", BENCH / "test"):
        found += sorted(d.rglob("*.scala"))
    return found


def digest(srcs, jars):
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    for j in sorted(os.listdir(jars)):
        h.update(j.encode())
    return h.hexdigest()


def jvm_tmp_opts():
    """Keeps every JVM's scratch files inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return ["-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]


def build():
    """Compiles if needed; returns (classpath, source digest)."""
    srcs = sources()
    jars = spark_jars()
    classpath = os.pathsep.join([str(CLASSES), str(jars / "*")])
    want = digest(srcs, jars)
    stamp = OUT / "stamp"
    if stamp.is_file() and stamp.read_text() == want and CLASSES.is_dir():
        return classpath, want
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    compiler = [glob.glob(str(jars / f"scala-{part}-2.*.jar"))
                for part in ("compiler", "library", "reflect")]
    if not all(compiler):
        sys.exit(f"perfbench: no Scala compiler jars in {jars}")
    libs = os.pathsep.join(sorted(glob.glob(str(jars / "*.jar"))))
    cmd = (["java", "-Xss16m", "-Xmx2g"] + jvm_tmp_opts() +
           ["-cp", os.pathsep.join(c[0] for c in compiler), "scala.tools.nsc.Main",
            "-nowarn", "-d", str(CLASSES), "-classpath", libs] +
           [str(p) for p in srcs])
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: compile failed")
    stamp.write_text(want)
    return classpath, want


if __name__ == "__main__":
    build()
