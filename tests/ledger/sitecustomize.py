"""Reachability ledger, the collector: which ``repro`` functions ran.

Armed only when ``REPRO_LEDGER_DIR`` names a directory and this directory
is on ``PYTHONPATH`` (``tests/ledger/ledger.py`` arranges both). Each
process then appends ``file<TAB>first line<TAB>name`` of every code object
under ``src/repro`` the first time it runs to ``<dir>/<pid>.tsv``:

* one unbuffered ``os.write`` per line, so a forked sweep worker that
  ends in ``os._exit`` loses nothing; a forked child reopens under its
  own pid;
* ``threading.setprofile`` follows every thread started after this;
* cProfile's ``disable()`` clears any profile hook, so the hook is
  re-armed after it, and what cProfile saw meanwhile is recorded from its
  stats.
"""

import os
import sys
import threading


def _arm(out_dir):
    marker = os.sep + os.path.join("src", "repro") + os.sep
    seen = set()
    log = []

    def reopen():
        log[:] = [os.open(os.path.join(out_dir, f"{os.getpid()}.tsv"),
                          os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]

    def record(code):
        seen.add(code)
        if marker in code.co_filename:
            os.write(log[0], f"{code.co_filename}\t{code.co_firstlineno}\t"
                             f"{code.co_qualname}\n".encode())

    def hook(frame, event, arg):
        if event == "call" and frame.f_code not in seen:
            record(frame.f_code)

    import cProfile
    disable = cProfile.Profile.disable

    def disable_and_rearm(self):
        disable(self)
        for entry in self.getstats():
            if not isinstance(entry.code, str) and entry.code not in seen:
                record(entry.code)
        sys.setprofile(hook)

    reopen()
    os.register_at_fork(after_in_child=reopen)
    cProfile.Profile.disable = disable_and_rearm
    sys.setprofile(hook)
    threading.setprofile(hook)


if os.environ.get("REPRO_LEDGER_DIR"):
    _arm(os.environ["REPRO_LEDGER_DIR"])
