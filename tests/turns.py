"""Threads that take turns at seeded points, so a race between them shows
on any machine.

How often the interpreter switches threads on its own depends on the
host: where a blocked thread takes milliseconds to wake, two threads
switch a few hundred times a second whatever ``sys.setswitchinterval``
says, and a race whose window is a few bytecodes wide never shows.
:func:`take_turns` runs one thread at a time and hands the interpreter
from one to another at returns from C functions (``np.empty``,
``list.sort``, ...), at points that a seeded ``random.Random`` picks, so
one seed gives one interleaving.

A thread that waits for a lock another thread holds would wait with the
turn in hand, so no thread hands over while it holds one of the locks a
caller names: the code those locks guard runs whole, as the locks
promise, and the same code with a lock left out is interleaved.
"""

from __future__ import annotations

import random
import sys
import threading


def take_turns(works, seed, locks=()):
    """The results of the callables ``works``, each run on a thread of
    its own, one thread at a time. At each return from a C function the
    running thread hands the interpreter, with probability 1/2, to
    another unfinished one, unless one of ``locks`` is held;
    ``Random(seed)`` draws both choices. An exception of a work is raised
    here, once every thread has ended."""
    pick = random.Random(seed)
    turns = [threading.Lock() for _ in works]
    for turn in turns:
        turn.acquire()
    running = list(range(len(works)))
    results = [None] * len(works)

    def hand_over(i):
        # give the turn to another running thread and wait for it back
        if any(lock.locked() for lock in locks):
            return
        others = [j for j in running if j != i]
        if others and pick.random() < 0.5:
            turns[pick.choice(others)].release()
            turns[i].acquire()

    def thread(i):
        turns[i].acquire()
        sys.setprofile(lambda frame, event, arg:
                       event == "c_return" and hand_over(i))
        try:
            results[i] = works[i]()
        except BaseException as error:
            results[i] = error
        finally:
            sys.setprofile(None)
            running.remove(i)
            if running:
                turns[pick.choice(running)].release()

    threads = [threading.Thread(target=thread, args=(i,))
               for i in range(len(works))]
    for t in threads:
        t.start()
    turns[0].release()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "a thread kept its turn"
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results
