"""Unit tests for the simplified stacked-borrows model."""

import pytest

from repro.miri.borrows import (
    BorrowError,
    BorrowStack,
    Permission,
    TagOrigin,
)
from repro.miri.errors import UbKind


def fresh_stack():
    return BorrowStack.new_allocation()


class TestBasicAccess:
    def test_base_tag_grants_read_and_write(self):
        stack, base = fresh_stack()
        stack.read(base)
        stack.write(base)
        assert stack.grants(base)

    def test_missing_tag_read_raises(self):
        stack, base = fresh_stack()
        with pytest.raises(BorrowError):
            stack.read(9999)

    def test_missing_tag_write_raises(self):
        stack, base = fresh_stack()
        with pytest.raises(BorrowError):
            stack.write(9999)


class TestRetags:
    def test_retag_mut_pushes_unique(self):
        stack, base = fresh_stack()
        tag = stack.retag_mut(base)
        assert stack.items[-1].tag == tag
        assert stack.items[-1].perm is Permission.UNIQUE

    def test_retag_shared_pushes_shared_ro(self):
        stack, base = fresh_stack()
        tag = stack.retag_shared(base)
        assert stack.items[-1].perm is Permission.SHARED_RO

    def test_retag_raw_mut_pushes_shared_rw(self):
        stack, base = fresh_stack()
        tag = stack.retag_raw(base, mutable=True)
        assert stack.items[-1].perm is Permission.SHARED_RW
        assert stack.origins[tag] is TagOrigin.RAW


class TestInvalidation:
    def test_write_via_base_invalidates_raw(self):
        """The classic stacked-borrows case: &mut x → raw, then new &mut x."""
        stack, base = fresh_stack()
        ref_tag = stack.retag_mut(base)
        raw_tag = stack.retag_raw(ref_tag, mutable=True)
        # New mutable reborrow from the base pops everything above it.
        stack.retag_mut(base)
        with pytest.raises(BorrowError) as err:
            stack.read(raw_tag)
        assert err.value.error.kind is UbKind.STACK_BORROW

    def test_write_via_base_invalidates_shared_ref(self):
        """Both-borrow case: & alias invalidated by a write."""
        stack, base = fresh_stack()
        shared = stack.retag_shared(base)
        stack.write(base)
        with pytest.raises(BorrowError) as err:
            stack.read(shared)
        assert err.value.error.kind is UbKind.BOTH_BORROW

    def test_read_keeps_shared_rw(self):
        stack, base = fresh_stack()
        raw = stack.retag_raw(base, mutable=True)
        stack.read(base)  # reads only pop Unique items
        stack.read(raw)   # still valid

    def test_read_pops_unique_above(self):
        stack, base = fresh_stack()
        unique = stack.retag_mut(base)
        stack.read(base)
        with pytest.raises(BorrowError):
            stack.write(unique)

    def test_write_through_shared_ro_rejected(self):
        stack, base = fresh_stack()
        shared = stack.retag_shared(base)
        with pytest.raises(BorrowError) as err:
            stack.write(shared)
        assert err.value.error.kind is UbKind.BOTH_BORROW

    def test_error_category_by_origin(self):
        # Raw-origin missing tag → stack_borrow; ref-origin → both_borrow.
        stack, base = fresh_stack()
        raw = stack.retag_raw(base, mutable=True)
        shared = stack.retag_shared(raw)
        stack.write(base)
        with pytest.raises(BorrowError) as raw_err:
            stack.write(raw)
        assert raw_err.value.error.kind is UbKind.STACK_BORROW
        with pytest.raises(BorrowError) as ref_err:
            stack.read(shared)
        assert ref_err.value.error.kind is UbKind.BOTH_BORROW

    def test_nested_reborrows_form_stack(self):
        stack, base = fresh_stack()
        t1 = stack.retag_mut(base)
        t2 = stack.retag_mut(t1)
        t3 = stack.retag_mut(t2)
        assert stack.depth() == 4
        stack.write(t1)  # pops t2, t3
        assert stack.depth() == 2
        assert not stack.grants(t2)
        assert not stack.grants(t3)


class TestTagIsolation:
    """Tag numbering restarts per execution: diagnostics (and therefore
    prompt token counts) depend only on the program, never on what else
    ran earlier in the process or on another thread."""

    BUGGY = '''
fn main() {
    let mut x = 5;
    let p = &mut x as *mut i32;
    let r = &mut x;
    *r += 1;
    let v = unsafe { *p };
}'''

    @pytest.fixture(autouse=True)
    def _every_call_executes(self):
        # A verdict-memo copy would make a repeated question trivially
        # identical; these tests need each call to interpret.
        from repro.miri import CASE_MEMO
        CASE_MEMO.enabled = False

    def test_report_identical_after_other_runs(self):
        from repro.miri import detect_ub
        first = detect_ub(self.BUGGY).render()
        for _ in range(5):
            detect_ub('fn main() { let a = &mut 1; let b = &mut 2; }')
        assert detect_ub(self.BUGGY).render() == first

    def test_reports_identical_across_threads(self):
        import threading
        from repro.miri import detect_ub
        results = {}

        def work(key, warmups):
            for _ in range(warmups):
                detect_ub('fn main() { let r = &mut 3; *r += 1; }')
            results[key] = detect_ub(self.BUGGY).render()

        threads = [threading.Thread(target=work, args=(n, n * 3))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results.values())) == 1
